"""Dynamic-graph substrate.

The paper models the network as a synchronous dynamic graph ``G`` with a fixed
node set ``V`` and a per-round edge set ``E_r`` (Section 1.3).  This package
provides:

* :class:`~repro.dynamics.graph_sequence.DynamicGraphTrace` — the recorded
  sequence of round graphs of an execution, with inserted/removed edge sets
  ``E+_r`` / ``E-_r`` and the topological-change count ``TC(E)``; every
  engine records into it as integer edge ids, decoded to node tuples on
  demand;
* :class:`~repro.dynamics.graph_sequence.GraphSchedule` — a pre-committed
  (oblivious) sequence of round graphs;
* generators for a variety of dynamic-graph workloads;
* σ-edge-stability checking and enforcement;
* connectivity helpers and structural statistics.
"""

from repro.dynamics.graph_sequence import DynamicGraphTrace, GraphSchedule
from repro.dynamics.connectivity import (
    connected_components,
    is_connected,
    ensure_connected,
    spanning_forest,
)
from repro.dynamics.generators import (
    static_schedule,
    static_complete_schedule,
    static_path_schedule,
    static_star_schedule,
    static_cycle_schedule,
    random_connected_edges,
    churn_schedule,
    edge_markovian_schedule,
    rewiring_regular_schedule,
    star_oscillator_schedule,
    path_shuffle_schedule,
    geometric_mobility_schedule,
)
from repro.dynamics.stability import (
    is_sigma_edge_stable,
    minimum_edge_stability,
    stabilize_schedule,
)
from repro.dynamics.properties import (
    degree_statistics,
    churn_statistics,
    schedule_summary,
)
from repro.dynamics.serialization import (
    schedule_to_json,
    schedule_from_json,
    trace_to_schedule_json,
    save_schedule,
    load_schedule,
)

__all__ = [
    "DynamicGraphTrace",
    "GraphSchedule",
    "connected_components",
    "is_connected",
    "ensure_connected",
    "spanning_forest",
    "static_schedule",
    "static_complete_schedule",
    "static_path_schedule",
    "static_star_schedule",
    "static_cycle_schedule",
    "random_connected_edges",
    "churn_schedule",
    "edge_markovian_schedule",
    "rewiring_regular_schedule",
    "star_oscillator_schedule",
    "path_shuffle_schedule",
    "geometric_mobility_schedule",
    "is_sigma_edge_stable",
    "minimum_edge_stability",
    "stabilize_schedule",
    "degree_statistics",
    "churn_statistics",
    "schedule_summary",
    "schedule_to_json",
    "schedule_from_json",
    "trace_to_schedule_json",
    "save_schedule",
    "load_schedule",
]
