"""Executing scenario specs: materialization, single runs and records.

The execution pipeline is spec-in, records-out:

* :func:`materialize` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
  into live ``(problem, algorithm, adversary)`` objects via the registries;
* :func:`run_scenario` runs one repetition and returns the raw
  :class:`~repro.core.result.ExecutionResult` (for code that needs the full
  object, e.g. benchmarks and examples);
* :func:`run_spec` runs all repetitions of one spec on ``spec.backend``
  and returns plain-dict records ready for JSON — the reference the sweep
  executors are tested against;
* :func:`record_to_json_line` is the canonical JSONL encoding of a record.

Batches of specs run through :class:`repro.api.Experiment` /
:class:`repro.api.RunSet`, serially or fanned out over worker processes.

Determinism: the seed of repetition ``r`` is derived from
``(spec.seed, spec.scenario_key(), r)`` with a cross-process-stable hash,
and workers rebuild every object from the spec's JSON.  A parallel run
therefore produces byte-identical records to a serial run of the same
batch, regardless of worker count or scheduling.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple

from repro.backends import get_backend
from repro.results.records import SCHEMA_VERSION as RECORD_SCHEMA_VERSION
from repro.scenarios.registry import (
    ADVERSARY_REGISTRY,
    ALGORITHM_REGISTRY,
    PROBLEM_REGISTRY,
)
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import derive_seed
from repro.utils.validation import ConfigurationError

if TYPE_CHECKING:
    from repro.core.problem import DisseminationProblem
    from repro.core.result import ExecutionResult


class MaterializedScenario(NamedTuple):
    """Live objects built from a spec, ready to hand to the Simulator."""

    problem: DisseminationProblem
    algorithm: Any
    adversary: Any


def _build_problem(spec: ScenarioSpec) -> DisseminationProblem:
    entry = PROBLEM_REGISTRY.get(spec.problem)
    params = dict(spec.problem_params)
    # Randomized problem constructors must not fall back to nondeterministic
    # seeding: inject a seed derived from the spec unless one is given.
    if "seed" not in params and entry.accepts("seed"):
        params["seed"] = derive_seed(spec.seed, spec.scenario_key(), "problem")
    return entry.create(**params)


def materialize(spec: ScenarioSpec) -> MaterializedScenario:
    """Build fresh problem, algorithm and adversary objects for one execution."""
    return MaterializedScenario(
        problem=_build_problem(spec),
        algorithm=ALGORITHM_REGISTRY.create(spec.algorithm, **spec.algorithm_params),
        adversary=ADVERSARY_REGISTRY.create(spec.adversary, **spec.adversary_params),
    )


def repetition_seed(spec: ScenarioSpec, repetition: int) -> int:
    """The engine seed used for repetition ``repetition`` of ``spec``."""
    return derive_seed(spec.seed, spec.scenario_key(), repetition)


def run_scenario(
    spec: ScenarioSpec, repetition: int = 0, *, keep_trace: bool = True, tracer=None
) -> ExecutionResult:
    """Run one repetition of ``spec`` and return the full execution result.

    The execution is dispatched to the backend named by ``spec.backend``
    (see :mod:`repro.backends`); all validated backends produce structurally
    identical results, so the choice only affects wall-clock and memory.
    ``tracer`` (a :class:`repro.obs.Tracer`) is forwarded only when given,
    so third-party backends that predate the tracer kwarg keep working
    untraced.
    """
    if repetition < 0 or repetition >= spec.repetitions:
        raise ConfigurationError(
            f"repetition {repetition} out of range for a spec with "
            f"{spec.repetitions} repetition(s)"
        )
    scenario = materialize(spec)
    backend = get_backend(spec.backend)
    kwargs: Dict[str, Any] = {}
    if tracer is not None:
        kwargs["tracer"] = tracer
    return backend.run(
        scenario.problem,
        scenario.algorithm,
        scenario.adversary,
        seed=repetition_seed(spec, repetition),
        max_rounds=spec.max_rounds,
        keep_trace=keep_trace,
        **kwargs,
    )


def record_from_result(
    spec: ScenarioSpec, repetition: int, seed: int, result: ExecutionResult
) -> Dict[str, Any]:
    """Flatten one execution into a JSON-ready record."""
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "scenario": spec.label,
        "spec": spec.to_dict(),
        "repetition": repetition,
        "seed": seed,
        "n": result.num_nodes,
        "k": result.num_tokens,
        "s": result.problem.num_sources,
        "completed": result.completed,
        "rounds": result.rounds,
        "total_messages": result.total_messages,
        "amortized_messages": result.amortized_messages(),
        "topological_changes": result.topological_changes,
        "adversary_competitive": result.adversary_competitive_messages(),
        "amortized_adversary_competitive": (
            result.amortized_adversary_competitive_messages()
        ),
        "token_learnings": result.token_learnings(),
    }


def run_spec(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """Run every repetition of one spec and return one record per repetition."""
    records: List[Dict[str, Any]] = []
    for repetition in range(spec.repetitions):
        result = run_scenario(spec, repetition)
        records.append(
            record_from_result(spec, repetition, repetition_seed(spec, repetition), result)
        )
    return records


def record_to_json_line(record: Dict[str, Any]) -> str:
    """The canonical JSONL encoding of one record (stable key order)."""
    return json.dumps(record, sort_keys=True)
