"""Reference equivalence of the bitmask topology path.

The controlled-churn adversary and the connectivity helpers run on integer
edge ids and adjacency bitmasks.  This module keeps their tuple-based
formulations — a dict union-find for components and the per-round
``normalize_edge`` churn step — as test-local references, and checks on a
seeded grid that both produce the same graphs, components and random draws.
"""

import random

import pytest

from repro.adversaries.oblivious import ControlledChurnAdversary
from repro.core.problem import single_source_problem
from repro.core.state import edge_id
from repro.dynamics.connectivity import (
    connected_components,
    ensure_connected,
    is_connected,
    mask_components,
)
from repro.utils.ids import normalize_edge

# ---------------------------------------------------------------------------
# Tuple-based references
# ---------------------------------------------------------------------------


class ReferenceUnionFind:
    def __init__(self, nodes):
        self.parent = {node: node for node in nodes}
        self.rank = {node: 0 for node in self.parent}

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, u, v):
        root_u, root_v = self.find(u), self.find(v)
        if root_u == root_v:
            return
        if self.rank[root_u] < self.rank[root_v]:
            root_u, root_v = root_v, root_u
        self.parent[root_v] = root_u
        if self.rank[root_u] == self.rank[root_v]:
            self.rank[root_u] += 1


def reference_connected_components(nodes, edges):
    node_list = list(nodes)
    uf = ReferenceUnionFind(node_list)
    for u, v in edges:
        uf.union(u, v)
    groups = {}
    for node in node_list:
        groups.setdefault(uf.find(node), set()).add(node)
    return list(groups.values())


def reference_ensure_connected(nodes, edges, rng):
    edge_set = {normalize_edge(u, v) for (u, v) in edges}
    components = reference_connected_components(nodes, edge_set)
    if len(components) <= 1:
        return edge_set
    representatives = [rng.choice(sorted(component)) for component in components]
    rng.shuffle(representatives)
    for left, right in zip(representatives, representatives[1:]):
        edge_set.add(normalize_edge(left, right))
    return edge_set


def reference_random_connected_edges(nodes, edge_probability, rng):
    edges = set()
    node_list = sorted(nodes)
    for index, u in enumerate(node_list):
        for v in node_list[index + 1 :]:
            if rng.random() < edge_probability:
                edges.add(normalize_edge(u, v))
    return reference_ensure_connected(node_list, edges, rng)


class ReferenceChurn:
    """The tuple formulation of the controlled-churn round step."""

    def __init__(self, nodes, changes_per_round, edge_probability, rng):
        self.nodes = list(nodes)
        self.changes_per_round = changes_per_round
        self.edge_probability = edge_probability
        self.rng = rng
        self.current = None

    def edges_for_round(self):
        if self.current is None:
            self.current = set(
                reference_random_connected_edges(
                    self.nodes, self.edge_probability, self.rng
                )
            )
            return set(self.current)
        if self.changes_per_round == 0:
            return set(self.current)
        nodes = self.nodes
        edges = set(self.current)
        removable = sorted(edges)
        to_remove = self.rng.sample(
            removable, min(self.changes_per_round, len(removable))
        )
        for edge in to_remove:
            edges.discard(edge)
        candidates = [
            normalize_edge(u, v)
            for index, u in enumerate(nodes)
            for v in nodes[index + 1 :]
            if normalize_edge(u, v) not in edges
        ]
        to_add = self.rng.sample(candidates, min(len(to_remove), len(candidates)))
        edges.update(to_add)
        self.current = set(reference_ensure_connected(nodes, edges, self.rng))
        return set(self.current)


def random_graph(rng, nodes, edge_probability):
    nodes = list(nodes)
    return {
        (u, v)
        for index, u in enumerate(nodes)
        for v in nodes[index + 1 :]
        if rng.random() < edge_probability
    }


# ---------------------------------------------------------------------------
# Connectivity helpers
# ---------------------------------------------------------------------------


class TestMaskComponents:
    def test_empty_graph_has_no_components(self):
        assert mask_components([]) == []

    def test_components_ordered_by_lowest_member(self):
        # 0-3, 1-2, 4 isolated.
        adj = [0b01000, 0b00100, 0b00010, 0b00001, 0]
        assert mask_components(adj) == [0b01001, 0b00110, 0b10000]

    def test_connected_graph_is_one_full_mask(self):
        adj = [0b0010, 0b0101, 0b1010, 0b0100]  # path 0-1-2-3
        assert mask_components(adj) == [0b1111]


class TestConnectivityMatchesUnionFind:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 40])
    @pytest.mark.parametrize("edge_probability", [0.0, 0.05, 0.15, 0.5])
    def test_components_and_repair_match_the_reference(self, n, edge_probability):
        rng = random.Random(n * 1000 + int(edge_probability * 100))
        for trial in range(12):
            # Non-contiguous ids in a shuffled order: component order is the
            # order in which a member first appears in ``nodes``.
            nodes = rng.sample(range(3 * n + 5), n)
            if trial % 3:
                rng.shuffle(nodes)
            else:
                nodes.sort()
            edges = random_graph(rng, nodes, edge_probability)
            expected = reference_connected_components(nodes, edges)
            actual = connected_components(nodes, edges)
            assert actual == expected
            assert [list(c) for c in actual] == [list(c) for c in expected]
            assert is_connected(nodes, edges) == (len(expected) <= 1)

            seed = rng.randrange(1 << 30)
            left, right = random.Random(seed), random.Random(seed)
            assert ensure_connected(nodes, edges, left) == reference_ensure_connected(
                nodes, edges, right
            )
            assert left.random() == right.random()

    def test_unknown_endpoint_still_raises_key_error(self):
        with pytest.raises(KeyError):
            connected_components([0, 1], [(0, 7)])

    def test_duplicate_nodes_collapse_like_the_reference(self):
        nodes = [3, 1, 3, 2]
        edges = [(1, 2)]
        assert connected_components(nodes, edges) == reference_connected_components(
            nodes, edges
        )


# ---------------------------------------------------------------------------
# Controlled churn
# ---------------------------------------------------------------------------


class TestChurnMatchesTupleReference:
    ROUNDS = 100

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 40])
    @pytest.mark.parametrize("budget", [0, 1, 4, 9])
    def test_edges_ids_and_rng_match_the_reference(self, n, budget):
        problem = single_source_problem(n, 1)
        index_of = {node: index for index, node in enumerate(problem.nodes)}
        for edge_probability in (0.0, 0.05, 0.3, 0.9):
            seed = n * 100 + budget * 10 + int(edge_probability * 10)
            reference_rng = random.Random(seed)
            reference = ReferenceChurn(
                problem.nodes, budget, edge_probability, reference_rng
            )
            tuples = ControlledChurnAdversary(budget, edge_probability)
            ids = ControlledChurnAdversary(budget, edge_probability)
            tuples_rng, ids_rng = random.Random(seed), random.Random(seed)
            tuples.reset(problem, tuples_rng)
            ids.reset(problem, ids_rng)
            for round_index in range(1, self.ROUNDS + 1):
                expected = reference.edges_for_round()
                assert tuples.edges_for_round(round_index, None) == expected
                assert ids.edge_ids_for_round(round_index, None, index_of) == {
                    edge_id(index_of[u], index_of[v], n) for u, v in expected
                }
            after = reference_rng.random()
            assert tuples_rng.random() == after
            assert ids_rng.random() == after
