"""Structural statistics of dynamic-graph schedules and traces.

These summaries are used by the experiment harness to report workload
characteristics next to measured message complexities (average degree, edge
churn per round, observed edge stability, connectivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, FrozenSet, List, Union

from repro.dynamics.connectivity import is_connected
from repro.dynamics.graph_sequence import DynamicGraphTrace, GraphSchedule
from repro.dynamics.stability import minimum_edge_stability, round_edge_sets
from repro.utils.ids import Edge, NodeId

Source = Union[DynamicGraphTrace, GraphSchedule]


@dataclass(frozen=True)
class DegreeStatistics:
    """Per-schedule degree summary."""

    min_degree: int
    max_degree: int
    mean_degree: float
    mean_edges_per_round: float


@dataclass(frozen=True)
class ChurnStatistics:
    """Per-schedule churn summary (insertions / deletions per round, total TC)."""

    total_insertions: int
    total_deletions: int
    mean_insertions_per_round: float
    mean_deletions_per_round: float
    max_insertions_in_a_round: int


@dataclass(frozen=True)
class ScheduleSummary:
    """Combined structural summary of a schedule or trace."""

    num_nodes: int
    num_rounds: int
    always_connected: bool
    edge_stability: int
    degrees: DegreeStatistics
    churn: ChurnStatistics


def degree_statistics(source: Source) -> DegreeStatistics:
    """Degree statistics aggregated over all rounds."""
    rounds = round_edge_sets(source)
    nodes = source.nodes
    if not rounds:
        return DegreeStatistics(0, 0, 0.0, 0.0)
    min_degree = len(nodes)
    max_degree = 0
    degree_sums: List[float] = []
    for edges in rounds:
        degrees: Dict[NodeId, int] = {node: 0 for node in nodes}
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        values = list(degrees.values())
        min_degree = min(min_degree, min(values))
        max_degree = max(max_degree, max(values))
        degree_sums.append(mean(values))
    return DegreeStatistics(
        min_degree=min_degree,
        max_degree=max_degree,
        mean_degree=mean(degree_sums),
        mean_edges_per_round=mean(len(edges) for edges in rounds),
    )


def churn_statistics(source: Source) -> ChurnStatistics:
    """Edge insertion/deletion statistics (``TC`` is ``total_insertions``)."""
    rounds = round_edge_sets(source)
    previous: FrozenSet[Edge] = frozenset()
    insertions: List[int] = []
    deletions: List[int] = []
    for edges in rounds:
        insertions.append(len(edges - previous))
        deletions.append(len(previous - edges))
        previous = edges
    if not rounds:
        return ChurnStatistics(0, 0, 0.0, 0.0, 0)
    return ChurnStatistics(
        total_insertions=sum(insertions),
        total_deletions=sum(deletions),
        mean_insertions_per_round=mean(insertions),
        mean_deletions_per_round=mean(deletions),
        max_insertions_in_a_round=max(insertions),
    )


def schedule_summary(source: Source) -> ScheduleSummary:
    """Full structural summary used in experiment reports."""
    rounds = round_edge_sets(source)
    nodes = source.nodes
    always_connected = all(is_connected(nodes, edges) for edges in rounds)
    return ScheduleSummary(
        num_nodes=len(nodes),
        num_rounds=len(rounds),
        always_connected=always_connected,
        edge_stability=minimum_edge_stability(source) if rounds else 1,
        degrees=degree_statistics(source),
        churn=churn_statistics(source),
    )
