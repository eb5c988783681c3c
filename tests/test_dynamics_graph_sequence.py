"""Unit tests for DynamicGraphTrace and GraphSchedule."""

import pytest

from repro.dynamics.graph_sequence import DynamicGraphTrace, GraphSchedule
from repro.utils.validation import ConfigurationError, SimulationError


class TestDynamicGraphTrace:
    def test_round_zero_is_empty(self):
        trace = DynamicGraphTrace([0, 1, 2])
        assert trace.edges_in_round(0) == frozenset()

    def test_record_round_normalizes_edges(self):
        trace = DynamicGraphTrace([0, 1, 2])
        recorded = trace.record_round([(1, 0), (2, 1)])
        assert recorded == frozenset({(0, 1), (1, 2)})

    def test_inserted_edges_of_first_round(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1)])
        assert trace.inserted_edges(1) == frozenset({(0, 1)})

    def test_inserted_and_removed_across_rounds(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1), (1, 2)])
        trace.record_round([(1, 2), (0, 2)])
        assert trace.inserted_edges(2) == frozenset({(0, 2)})
        assert trace.removed_edges(2) == frozenset({(0, 1)})

    def test_topological_changes_counts_insertions_only(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1), (1, 2)])   # +2
        trace.record_round([(0, 2)])           # +1 (two removed)
        trace.record_round([(0, 1), (0, 2)])   # +1
        assert trace.topological_changes() == 4

    def test_topological_changes_prefix(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1)])
        trace.record_round([(1, 2)])
        assert trace.topological_changes(up_to_round=1) == 1
        assert trace.topological_changes(up_to_round=2) == 2

    def test_removals_never_exceed_insertions(self):
        trace = DynamicGraphTrace(list(range(4)))
        trace.record_round([(0, 1), (1, 2), (2, 3)])
        trace.record_round([(0, 3)])
        trace.record_round([(0, 1)])
        assert trace.total_edge_removals() <= trace.topological_changes()

    def test_graph_returns_networkx_graph_with_all_nodes(self):
        nx = pytest.importorskip("networkx")
        trace = DynamicGraphTrace([0, 1, 2, 3])
        trace.record_round([(0, 1)])
        graph = trace.graph(1)
        assert isinstance(graph, nx.Graph)
        assert set(graph.nodes) == {0, 1, 2, 3}
        assert set(graph.edges) == {(0, 1)}

    def test_neighbors_map(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1), (1, 2)])
        neighbors = trace.neighbors(1)
        assert neighbors[1] == frozenset({0, 2})
        assert neighbors[0] == frozenset({1})

    def test_unknown_round_raises(self):
        trace = DynamicGraphTrace([0, 1])
        with pytest.raises(SimulationError):
            trace.edges_in_round(1)

    def test_edge_outside_node_set_rejected(self):
        trace = DynamicGraphTrace([0, 1])
        with pytest.raises(ConfigurationError):
            trace.record_round([(0, 5)])

    def test_edge_lifetime(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1)])
        trace.record_round([(0, 1), (1, 2)])
        trace.record_round([(1, 2)])
        assert trace.edge_lifetime((1, 0)) == 2
        assert trace.edge_lifetime((1, 2)) == 2

    def test_as_schedule_round_trip(self):
        trace = DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1)])
        trace.record_round([(1, 2)])
        schedule = trace.as_schedule()
        assert schedule.num_rounds == 2
        assert schedule.edges_for_round(1) == frozenset({(0, 1)})
        assert schedule.edges_for_round(2) == frozenset({(1, 2)})

    def test_len_and_repr(self):
        trace = DynamicGraphTrace([0, 1])
        trace.record_round([(0, 1)])
        assert len(trace) == 1
        assert "TC=1" in repr(trace)


class TestGraphSchedule:
    def test_requires_at_least_one_round(self):
        with pytest.raises(ConfigurationError):
            GraphSchedule([0, 1], [])

    def test_last_round_repeats_beyond_schedule(self):
        schedule = GraphSchedule([0, 1, 2], [[(0, 1)], [(1, 2)]])
        assert schedule.edges_for_round(2) == frozenset({(1, 2)})
        assert schedule.edges_for_round(10) == frozenset({(1, 2)})

    def test_round_index_must_be_positive(self):
        schedule = GraphSchedule([0, 1], [[(0, 1)]])
        with pytest.raises(ConfigurationError):
            schedule.edges_for_round(0)

    def test_prefix(self):
        schedule = GraphSchedule([0, 1, 2], [[(0, 1)], [(1, 2)], [(0, 2)]])
        prefix = schedule.prefix(2)
        assert prefix.num_rounds == 2
        assert prefix.edges_for_round(2) == frozenset({(1, 2)})

    def test_concatenate(self):
        first = GraphSchedule([0, 1], [[(0, 1)]])
        second = GraphSchedule([0, 1], [[(0, 1)]])
        combined = first.concatenate(second)
        assert combined.num_rounds == 2

    def test_concatenate_rejects_different_node_sets(self):
        first = GraphSchedule([0, 1], [[(0, 1)]])
        second = GraphSchedule([0, 1, 2], [[(0, 1)]])
        with pytest.raises(ConfigurationError):
            first.concatenate(second)

    def test_topological_changes(self):
        schedule = GraphSchedule([0, 1, 2], [[(0, 1)], [(0, 1), (1, 2)], [(0, 2)]])
        assert schedule.topological_changes() == 3

    def test_topological_changes_prefix(self):
        schedule = GraphSchedule([0, 1, 2], [[(0, 1)], [(0, 1), (1, 2)], [(0, 2)]])
        assert schedule.topological_changes(num_rounds=2) == 2

    def test_iter_rounds(self):
        schedule = GraphSchedule([0, 1], [[(0, 1)]])
        rounds = list(schedule.iter_rounds())
        assert rounds == [(1, frozenset({(0, 1)}))]

    def test_equality(self):
        a = GraphSchedule([0, 1], [[(0, 1)]])
        b = GraphSchedule([0, 1], [[(1, 0)]])
        assert a == b

    def test_graph_accessor(self):
        pytest.importorskip("networkx")
        schedule = GraphSchedule([0, 1, 2], [[(0, 1)]])
        graph = schedule.graph(1)
        assert set(graph.nodes) == {0, 1, 2}
        assert set(graph.edges) == {(0, 1)}
