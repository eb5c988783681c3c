"""Differential validation: run two backends on the same seeds, diff results.

A fast path that is fast but wrong is worse than no fast path, so backend
equivalence is checked *structurally*: both backends execute the identical
seeded scenario (same derived engine seed, hence the same adversary
randomness) and every observable field of the two
:class:`~repro.core.result.ExecutionResult` objects is compared —
completion, round count, message statistics (total, by kind, per round, per
node), ``TC(E)``, edge removals, the token-learning event log in order, and
(when both backends keep their traces) every per-round edge set.

:func:`default_differential_specs` provides the seeded grid behind
``python -m repro verify-backend``: every registered algorithm crossed with
oblivious *and* adaptive adversaries over a small (n, k, seed) grid,
including heavy-churn, multi-source, unicast-under-adaptive and
incomplete-run cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import get_backend
from repro.core.result import ExecutionResult
from repro.scenarios import ScenarioSpec, materialize, repetition_seed

#: Result attributes compared as plain values.
_SCALAR_FIELDS = (
    "algorithm_name",
    "adversary_name",
    "completed",
    "rounds",
    "total_messages",
    "topological_changes",
)


@dataclass(frozen=True)
class FieldDifference:
    """One observable field on which two executions disagreed."""

    field: str
    reference: Any
    candidate: Any

    def describe(self) -> Dict[str, Any]:
        return {
            "field": self.field,
            "reference": self.reference,
            "candidate": self.candidate,
        }


@dataclass(frozen=True)
class DifferentialOutcome:
    """The comparison of one seeded execution under two backends."""

    spec: ScenarioSpec
    repetition: int
    seed: int
    differences: Tuple[FieldDifference, ...]

    @property
    def equal(self) -> bool:
        """True iff every compared field matched."""
        return not self.differences

    def describe(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.label,
            "spec": self.spec.to_dict(),
            "repetition": self.repetition,
            "seed": self.seed,
            "equal": self.equal,
            "differences": [difference.describe() for difference in self.differences],
        }


@dataclass(frozen=True)
class DifferentialReport:
    """All outcomes of one differential-validation run."""

    reference: str
    candidate: str
    outcomes: Tuple[DifferentialOutcome, ...]

    @property
    def passed(self) -> bool:
        """True iff every execution matched on every field."""
        return all(outcome.equal for outcome in self.outcomes)

    @property
    def failures(self) -> List[DifferentialOutcome]:
        """The outcomes with at least one differing field."""
        return [outcome for outcome in self.outcomes if not outcome.equal]

    def describe(self) -> Dict[str, Any]:
        return {
            "reference": self.reference,
            "candidate": self.candidate,
            "executions": len(self.outcomes),
            "passed": self.passed,
            "failures": len(self.failures),
            "outcomes": [outcome.describe() for outcome in self.outcomes],
        }


def _first_sequence_mismatch(
    field: str, reference: Sequence[Any], candidate: Sequence[Any]
) -> FieldDifference:
    """Summarize where two sequences first diverge (kept short for reports)."""
    if len(reference) != len(candidate):
        return FieldDifference(
            field=f"{field}.length", reference=len(reference), candidate=len(candidate)
        )
    for index, (left, right) in enumerate(zip(reference, candidate)):
        if left != right:
            return FieldDifference(
                field=f"{field}[{index}]", reference=repr(left), candidate=repr(right)
            )
    return FieldDifference(field=field, reference="<equal>", candidate="<equal>")


def diff_results(
    reference: ExecutionResult,
    candidate: ExecutionResult,
    *,
    compare_graphs: bool = True,
) -> List[FieldDifference]:
    """Field-by-field comparison of two execution results.

    Returns an empty list iff the executions are structurally identical.
    Round graphs are compared only when ``compare_graphs`` is set and both
    traces retained their history.
    """
    differences: List[FieldDifference] = []
    for field in _SCALAR_FIELDS:
        left, right = getattr(reference, field), getattr(candidate, field)
        if left != right:
            differences.append(FieldDifference(field=field, reference=left, candidate=right))
    if reference.communication_model is not candidate.communication_model:
        differences.append(
            FieldDifference(
                field="communication_model",
                reference=reference.communication_model.value,
                candidate=candidate.communication_model.value,
            )
        )

    left_stats, right_stats = reference.messages, candidate.messages
    if left_stats.messages_by_kind != right_stats.messages_by_kind:
        differences.append(
            FieldDifference(
                field="messages_by_kind",
                reference=left_stats.messages_by_kind,
                candidate=right_stats.messages_by_kind,
            )
        )
    if left_stats.per_round_messages != right_stats.per_round_messages:
        differences.append(
            _first_sequence_mismatch(
                "per_round_messages",
                left_stats.per_round_messages,
                right_stats.per_round_messages,
            )
        )
    if left_stats.per_node_messages != right_stats.per_node_messages:
        differences.append(
            FieldDifference(
                field="per_node_messages",
                reference=left_stats.per_node_messages,
                candidate=right_stats.per_node_messages,
            )
        )

    if reference.trace.total_edge_removals() != candidate.trace.total_edge_removals():
        differences.append(
            FieldDifference(
                field="total_edge_removals",
                reference=reference.trace.total_edge_removals(),
                candidate=candidate.trace.total_edge_removals(),
            )
        )

    left_events = reference.events.events
    right_events = candidate.events.events
    if left_events != right_events:
        differences.append(
            _first_sequence_mismatch("events", left_events, right_events)
        )

    if (
        compare_graphs
        and reference.rounds == candidate.rounds
        and reference.trace.keeps_history
        and candidate.trace.keeps_history
    ):
        for round_index in range(1, reference.rounds + 1):
            left_edges = reference.trace.edges_in_round(round_index)
            right_edges = candidate.trace.edges_in_round(round_index)
            if left_edges != right_edges:
                differences.append(
                    FieldDifference(
                        field=f"round_graph[{round_index}]",
                        reference=f"{len(left_edges)} edges",
                        candidate=f"{len(right_edges)} edges (sets differ)",
                    )
                )
                break
    return differences


def validate_backends(
    specs: Sequence[ScenarioSpec],
    *,
    reference: str = "reference",
    candidate: str = "bitset",
    compare_graphs: bool = True,
) -> DifferentialReport:
    """Run every repetition of every spec under both backends and diff them.

    Each backend receives freshly materialized components and the same
    derived per-repetition seed, so any disagreement is attributable to the
    backend implementations, not to randomness or shared state.
    """
    reference_backend = get_backend(reference)
    candidate_backend = get_backend(candidate)
    outcomes: List[DifferentialOutcome] = []
    for spec in specs:
        for repetition in range(spec.repetitions):
            seed = repetition_seed(spec, repetition)
            results = []
            for backend in (reference_backend, candidate_backend):
                scenario = materialize(spec)
                results.append(
                    backend.run(
                        scenario.problem,
                        scenario.algorithm,
                        scenario.adversary,
                        seed=seed,
                        max_rounds=spec.max_rounds,
                    )
                )
            differences = diff_results(
                results[0], results[1], compare_graphs=compare_graphs
            )
            outcomes.append(
                DifferentialOutcome(
                    spec=spec,
                    repetition=repetition,
                    seed=seed,
                    differences=tuple(differences),
                )
            )
    return DifferentialReport(
        reference=reference, candidate=candidate, outcomes=tuple(outcomes)
    )


def _spec(
    algorithm: str,
    adversary: str,
    num_nodes: int,
    num_tokens: int,
    seed: int,
    *,
    problem: str = "single-source",
    problem_params: Optional[Dict[str, Any]] = None,
    adversary_params: Optional[Dict[str, Any]] = None,
    algorithm_params: Optional[Dict[str, Any]] = None,
    max_rounds: Optional[int] = None,
) -> ScenarioSpec:
    params: Dict[str, Any] = {"num_nodes": num_nodes}
    if problem != "n-gossip":
        params["num_tokens"] = num_tokens
    params.update(problem_params or {})
    return ScenarioSpec(
        problem=problem,
        problem_params=params,
        algorithm=algorithm,
        algorithm_params=dict(algorithm_params or {}),
        adversary=adversary,
        adversary_params=dict(adversary_params or {}),
        seed=seed,
        max_rounds=max_rounds,
        name=f"diff-{algorithm}-{adversary}-n{num_nodes}-k{num_tokens}-s{seed}",
    )


def default_differential_specs() -> List[ScenarioSpec]:
    """The seeded grid behind ``python -m repro verify-backend``.

    Covers every registered algorithm under both adversary classes:

    * every bitset fast program (flooding, one-shot-flooding, single-source,
      spanning-tree, naive-unicast, multi-source, and the two-phase
      ``oblivious`` program, which walks phase 1 on bit state and hands
      phase 2 to the multi-source one) against oblivious adversaries —
      steady churn, a static random graph, a rewiring expander,
      Θ(n)-changes-per-round star recentering and path reshuffling; the
      ``oblivious`` cells include a 3-round phase-1 budget (forced
      delivery) with a low degree threshold (high-degree hand-off);
    * the same fast programs against **adaptive** adversaries (request
      cutting, star recentering on the least-informed node, targeted
      rewiring, and the Section-2 lower-bound adversary), which exercises
      the kernel's lazy RoundObservation adapter on bitset state — in
      particular unicast-model cases where the graph is fixed before nodes
      commit to their messages, and Algorithm 2's random walks under
      request cutting and targeted rewiring;
    * a round-capped spec whose executions do *not* complete (both backends
      must agree on incomplete results too).
    """
    specs: List[ScenarioSpec] = []

    # Flooding (local broadcast) under steady churn.
    for num_nodes in (6, 10):
        for num_tokens in (4, 9):
            for seed in (0, 1):
                specs.append(
                    _spec(
                        "flooding",
                        "churn",
                        num_nodes,
                        num_tokens,
                        seed,
                        adversary_params={"changes_per_round": 2},
                    )
                )
    # Flooding from a spread-out initial placement under star recentering.
    for seed in (0, 1):
        specs.append(
            _spec(
                "flooding",
                "star-oscillator",
                8,
                6,
                seed,
                problem="random-placement",
                adversary_params={"num_nodes": 8},
            )
        )
    # Flooding on n-gossip (k = n, one token per node) under path reshuffling.
    for num_nodes in (8, 12):
        specs.append(
            _spec(
                "flooding",
                "path-shuffle",
                num_nodes,
                num_nodes,
                0,
                problem="n-gossip",
                adversary_params={"num_nodes": num_nodes},
            )
        )

    # Single-Source-Unicast across churn rates and k regimes.
    for num_nodes in (8, 12):
        for num_tokens in (6, 16):
            for seed in (0, 1):
                specs.append(
                    _spec(
                        "single-source",
                        "churn",
                        num_nodes,
                        num_tokens,
                        seed,
                        adversary_params={"changes_per_round": 3},
                    )
                )
    for seed in (0, 1, 2):
        specs.append(
            _spec(
                "single-source",
                "static-random",
                10,
                12,
                seed,
                adversary_params={"num_nodes": 10},
            )
        )
    for seed in (0, 1):
        specs.append(
            _spec(
                "single-source",
                "star-oscillator",
                10,
                8,
                seed,
                adversary_params={"num_nodes": 10},
            )
        )

    # Spanning tree: its natural static habitat, plus light churn with a
    # round cap — those runs may not complete, and the backends must agree
    # on the truncated executions as well.
    for num_nodes in (8, 12):
        for num_tokens in (6, 10):
            for seed in (0, 1):
                specs.append(
                    _spec(
                        "spanning-tree",
                        "static-random",
                        num_nodes,
                        num_tokens,
                        seed,
                        adversary_params={"num_nodes": num_nodes},
                    )
                )
    for seed in (0, 1):
        specs.append(
            _spec(
                "spanning-tree",
                "churn",
                10,
                6,
                seed,
                adversary_params={"changes_per_round": 1},
                max_rounds=120,
            )
        )

    # The remaining registered algorithms under oblivious adversaries:
    # one-shot flooding, naive unicast, multi-source, and the two-phase
    # oblivious algorithm.
    for seed in (0, 1):
        specs.append(
            _spec(
                "one-shot-flooding",
                "churn",
                10,
                8,
                seed,
                adversary_params={"changes_per_round": 2},
            )
        )
        specs.append(
            _spec(
                "naive-unicast",
                "churn",
                10,
                8,
                seed,
                adversary_params={"changes_per_round": 3},
            )
        )
        specs.append(
            _spec(
                "multi-source",
                "churn",
                10,
                9,
                seed,
                problem="multi-source",
                problem_params={"num_sources": 3},
                adversary_params={"changes_per_round": 2},
            )
        )
    specs.append(
        _spec(
            "multi-source",
            "path-shuffle",
            9,
            9,
            0,
            problem="n-gossip",
            adversary_params={"num_nodes": 9},
        )
    )
    specs.append(
        _spec(
            "oblivious",
            "churn",
            12,
            12,
            0,
            problem="multi-source",
            problem_params={"num_sources": 6},
            adversary_params={"changes_per_round": 1},
        )
    )
    # Algorithm 2 with a 3-round phase-1 budget (forced delivery promotes
    # the holders of walking tokens) and a degree threshold low enough for
    # the high-degree hand-off to neighbouring centers.
    specs.append(
        _spec(
            "oblivious",
            "rewiring-regular",
            12,
            12,
            1,
            problem="multi-source",
            problem_params={"num_sources": 6},
            adversary_params={"num_nodes": 12},
            algorithm_params={"phase1_round_limit": 3, "degree_threshold": 2.0},
        )
    )

    # Adaptive adversaries: the kernel builds RoundObservations lazily from
    # the bitset state, so every fast program must agree with the reference
    # under adaptivity too.  Includes the local-broadcast lower-bound
    # adversary of Section 2 and the unicast request-cutting adversary that
    # the proof of Theorem 3.1 charges to TC(E).
    for seed in (0, 1):
        specs.append(_spec("flooding", "star-recenter", 8, 6, seed))
        specs.append(
            _spec(
                "single-source",
                "request-cutting",
                10,
                8,
                seed,
                adversary_params={"cut_fraction": 0.7},
            )
        )
    specs.append(_spec("flooding", "lower-bound", 8, 5, 0))
    specs.append(_spec("one-shot-flooding", "star-recenter", 9, 6, 0))
    specs.append(_spec("single-source", "adaptive-rewiring", 10, 8, 1))
    specs.append(_spec("naive-unicast", "star-recenter", 9, 7, 0))
    specs.append(_spec("naive-unicast", "request-cutting", 9, 6, 1))
    specs.append(
        _spec(
            "multi-source",
            "request-cutting",
            10,
            9,
            0,
            problem="multi-source",
            problem_params={"num_sources": 3},
        )
    )
    specs.append(
        _spec(
            "multi-source",
            "adaptive-rewiring",
            10,
            8,
            1,
            problem="multi-source",
            problem_params={"num_sources": 4},
        )
    )
    # Algorithm 2's random walks under adversaries that read the messages
    # of the previous round and the knowledge masks.
    specs.append(
        _spec(
            "oblivious",
            "request-cutting",
            10,
            12,
            0,
            problem="multi-source",
            problem_params={"num_sources": 5},
        )
    )
    specs.append(
        _spec(
            "oblivious",
            "adaptive-rewiring",
            10,
            12,
            0,
            problem="multi-source",
            problem_params={"num_sources": 5},
        )
    )
    specs.append(
        _spec(
            "spanning-tree",
            "adaptive-rewiring",
            10,
            6,
            0,
            max_rounds=150,
        )
    )
    return specs
