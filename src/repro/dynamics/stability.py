"""σ-edge stability (Section 1.3).

A dynamic graph is *σ-edge stable* if every edge, once it appears, remains in
the graph for at least σ consecutive rounds.  Every dynamic graph is 1-edge
stable.  The Single-Source and Multi-Source unicast algorithms terminate in
``O(nk)`` rounds on 3-edge-stable graphs (Theorems 3.4 and 3.6).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Union

from repro.dynamics.graph_sequence import DynamicGraphTrace, GraphSchedule
from repro.utils.ids import Edge
from repro.utils.validation import ConfigurationError, require_positive_int

RoundGraphSource = Union[DynamicGraphTrace, GraphSchedule, Sequence[Set[Edge]]]


def round_edge_sets(source: RoundGraphSource) -> List[FrozenSet[Edge]]:
    """The edge set of every round of a trace, a schedule or a plain sequence."""
    if isinstance(source, DynamicGraphTrace):
        return [source.edges_in_round(r) for r in range(1, source.num_rounds + 1)]
    if isinstance(source, GraphSchedule):
        return [edges for _, edges in source.iter_rounds()]
    return [frozenset(edges) for edges in source]


def _presence_runs(edge_sets: Sequence[FrozenSet[Edge]]) -> Dict[Edge, List[int]]:
    """For every edge, the lengths of its maximal runs of consecutive presence.

    The final run is excluded when it reaches the end of the recorded
    sequence, because the edge may persist beyond the observation window
    (the stability requirement is about edges that actually disappear).
    """
    runs: Dict[Edge, List[int]] = {}
    active: Dict[Edge, int] = {}
    for edges in edge_sets:
        for edge in list(active):
            if edge not in edges:
                runs.setdefault(edge, []).append(active.pop(edge))
        for edge in edges:
            active[edge] = active.get(edge, 0) + 1
    return runs


#: Stability value reported when no edge ever disappears (vacuously stable
#: for every σ; schedules repeat their last round graph forever).
UNBOUNDED_STABILITY = 2**31


def minimum_edge_stability(source: RoundGraphSource) -> int:
    """The largest σ for which the recorded sequence is σ-edge stable.

    Returns the length of the shortest *completed* presence run over all
    edges.  If no edge ever disappears the sequence is vacuously stable for
    every σ and :data:`UNBOUNDED_STABILITY` is returned.  An empty sequence
    reports 1 (every dynamic graph is 1-edge stable).
    """
    edge_sets = round_edge_sets(source)
    if not edge_sets:
        return 1
    runs = _presence_runs(edge_sets)
    completed = [length for lengths in runs.values() for length in lengths]
    if not completed:
        return UNBOUNDED_STABILITY
    return min(completed)


def is_sigma_edge_stable(source: RoundGraphSource, sigma: int) -> bool:
    """True iff every edge that appears stays for at least ``sigma`` consecutive rounds."""
    require_positive_int(sigma, "sigma")
    return minimum_edge_stability(source) >= sigma


def stabilize_schedule(schedule: GraphSchedule, sigma: int) -> GraphSchedule:
    """Return a σ-edge-stable variant of ``schedule``.

    Whenever an edge is inserted in round ``r`` it is forced to remain present
    through round ``r + σ - 1``.  Only edges are *added* relative to the input
    schedule, so connectivity of every round graph is preserved.
    """
    require_positive_int(sigma, "sigma")
    if sigma == 1:
        return schedule
    edge_sets = [set(edges) for _, edges in schedule.iter_rounds()]
    num_rounds = len(edge_sets)
    previous: Set[Edge] = set()
    for index in range(num_rounds):
        inserted = edge_sets[index] - previous
        for offset in range(1, sigma):
            if index + offset < num_rounds:
                edge_sets[index + offset] |= inserted
        previous = set(edge_sets[index])
    stabilized = GraphSchedule(schedule.nodes, edge_sets)
    if not is_sigma_edge_stable(stabilized, sigma):
        raise ConfigurationError(
            "internal error: stabilize_schedule failed to reach the requested stability"
        )
    return stabilized
