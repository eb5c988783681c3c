"""Declarative scenario specifications.

A :class:`ScenarioSpec` names a complete experiment — problem, algorithm and
adversary, each by registry name plus keyword parameters, together with the
base seed, repetition count and round limit — as plain JSON-serializable
data.  Because a spec carries no live objects it can be written to disk,
shipped to a worker process and rebuilt there, which is what makes the
parallel :class:`~repro.api.RunSet` possible.

:func:`sweep` expands a base spec and a parameter grid into the cross
product of concrete specs, e.g.::

    specs = sweep(
        ScenarioSpec(problem="single-source",
                     problem_params={"num_nodes": 16, "num_tokens": 32},
                     algorithm="single-source", adversary="churn"),
        {"problem.num_nodes": [16, 32, 64], "seed": [0, 1, 2]},
    )
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.utils.validation import ConfigurationError, require_positive_int

#: Grid keys that address a whole spec field rather than a nested parameter.
_TOP_LEVEL_SWEEP_FIELDS = (
    "problem",
    "algorithm",
    "adversary",
    "seed",
    "repetitions",
    "max_rounds",
    "name",
    "backend",
)

#: Spec fields that are execution details, not scientific content: they are
#: excluded from :meth:`ScenarioSpec.scenario_key` (and hence from derived
#: seeds), so changing them never reseeds an experiment.
_EXECUTION_FIELDS = ("name", "repetitions", "max_rounds", "backend")

_PARAM_SECTIONS = {
    "problem": "problem_params",
    "algorithm": "algorithm_params",
    "adversary": "adversary_params",
}


def _validated_params(params: Mapping[str, Any], field_name: str) -> Dict[str, Any]:
    if not isinstance(params, Mapping):
        raise ConfigurationError(f"{field_name} must be a mapping, got {type(params).__name__}")
    for key in params:
        if not isinstance(key, str):
            raise ConfigurationError(f"{field_name} keys must be strings, got {key!r}")
    return dict(params)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, serializable experiment configuration.

    Attributes:
        problem: registry name of the dissemination problem.
        algorithm: registry name of the token-forwarding algorithm.
        adversary: registry name of the dynamic-network adversary.
        problem_params / algorithm_params / adversary_params: keyword
            parameters forwarded to the registered factories (merged over
            the registration defaults).
        seed: base seed; per-repetition seeds are derived from it together
            with the scenario content, so results are reproducible and
            independent of execution order or process placement.
        repetitions: how many independently seeded executions to run.
        max_rounds: optional round limit (defaults to the engine's bound).
        name: optional human-readable label used in records and reports.
        backend: registry name of the execution backend (see
            :mod:`repro.backends`).  An execution detail like ``name``: it
            never changes the derived seeds, so validated backends produce
            identical records under any choice.
    """

    problem: str
    algorithm: str
    adversary: str
    problem_params: Mapping[str, Any] = field(default_factory=dict)
    algorithm_params: Mapping[str, Any] = field(default_factory=dict)
    adversary_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    repetitions: int = 1
    max_rounds: Optional[int] = None
    name: str = ""
    backend: str = "reference"

    def __post_init__(self) -> None:
        for field_name in ("problem", "algorithm", "adversary"):
            value = getattr(self, field_name)
            if not value or not isinstance(value, str):
                raise ConfigurationError(f"{field_name} must be a non-empty registry name")
        for field_name in ("problem_params", "algorithm_params", "adversary_params"):
            object.__setattr__(
                self, field_name, _validated_params(getattr(self, field_name), field_name)
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        require_positive_int(self.repetitions, "repetitions")
        if self.max_rounds is not None:
            require_positive_int(self.max_rounds, "max_rounds")
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigurationError(
                f"backend must be a non-empty registry name, got {self.backend!r}"
            )

    # -- identity ----------------------------------------------------------

    @property
    def label(self) -> str:
        """``name`` if given, otherwise ``algorithm-vs-adversary-on-problem``."""
        return self.name or f"{self.algorithm}-vs-{self.adversary}-on-{self.problem}"

    def scenario_key(self) -> str:
        """Canonical JSON of the scientific content.

        Used to derive per-repetition seeds: two specs describing the same
        experiment get the same random streams regardless of how they are
        labelled, batched or distributed over worker processes.  ``name``
        is excluded (a label is not content), and so are ``repetitions``,
        ``max_rounds`` and ``backend``: raising the repetition count,
        adding a round cap or switching the execution backend must not
        reseed the repetitions already run.
        """
        payload = self.to_dict()
        for execution_field in _EXECUTION_FIELDS:
            payload.pop(execution_field, None)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict representation with deterministic content."""
        return {
            "problem": self.problem,
            "problem_params": dict(self.problem_params),
            "algorithm": self.algorithm,
            "algorithm_params": dict(self.algorithm_params),
            "adversary": self.adversary,
            "adversary_params": dict(self.adversary_params),
            "seed": self.seed,
            "repetitions": self.repetitions,
            "max_rounds": self.max_rounds,
            "name": self.name,
            "backend": self.backend,
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize to JSON; ``from_json`` of the result is the identity."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError("scenario payload must be a JSON object")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s) {sorted(unknown)}; known fields: {sorted(known)}"
            )
        return cls(**dict(payload))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse the JSON produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid scenario JSON: {error}") from error
        return cls.from_dict(payload)

    # -- derivation --------------------------------------------------------

    def with_params(
        self,
        *,
        problem: Optional[Mapping[str, Any]] = None,
        algorithm: Optional[Mapping[str, Any]] = None,
        adversary: Optional[Mapping[str, Any]] = None,
        **spec_fields: Any,
    ) -> "ScenarioSpec":
        """A copy with section parameters merged and/or spec fields replaced."""
        updates: Dict[str, Any] = dict(spec_fields)
        if problem:
            updates["problem_params"] = {**self.problem_params, **problem}
        if algorithm:
            updates["algorithm_params"] = {**self.algorithm_params, **algorithm}
        if adversary:
            updates["adversary_params"] = {**self.adversary_params, **adversary}
        return replace(self, **updates)


def _apply_sweep_assignment(spec: ScenarioSpec, key: str, value: Any) -> ScenarioSpec:
    if key in _TOP_LEVEL_SWEEP_FIELDS:
        return replace(spec, **{key: value})
    section, _, param = key.partition(".")
    if section in _PARAM_SECTIONS and param:
        return spec.with_params(**{section: {param: value}})
    raise ConfigurationError(
        f"invalid sweep key {key!r}: use one of {_TOP_LEVEL_SWEEP_FIELDS} or "
        f"'problem.<param>', 'algorithm.<param>', 'adversary.<param>'"
    )


def sweep(
    base: ScenarioSpec, grid: Mapping[str, Sequence[Any]]
) -> List[ScenarioSpec]:
    """Cross a parameter grid into concrete specs.

    ``grid`` maps sweep keys to the values to try.  Keys are either spec
    fields (``"seed"``, ``"algorithm"``, ...) or dotted parameter paths
    (``"problem.num_nodes"``).  The expansion order is deterministic: keys
    in the grid's iteration order, values in their given order, with the
    last key varying fastest.
    """
    if not grid:
        return [base]
    keys = list(grid)
    value_lists: List[List[Any]] = []
    for key in keys:
        values = list(grid[key])
        if not values:
            raise ConfigurationError(f"sweep key {key!r} has no values")
        value_lists.append(values)
    specs: List[ScenarioSpec] = []
    for combination in itertools.product(*value_lists):
        spec = base
        for key, value in zip(keys, combination):
            spec = _apply_sweep_assignment(spec, key, value)
        specs.append(spec)
    return specs


def load_specs(lines: Iterable[str]) -> List[ScenarioSpec]:
    """Parse one spec per non-empty line (the JSONL convention)."""
    return [ScenarioSpec.from_json(line) for line in lines if line.strip()]
