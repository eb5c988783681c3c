"""Reference equivalence of the bitmask topology path.

The controlled-churn, lower-bound and schedule-replaying adversaries and
the connectivity helpers run on integer edge ids and adjacency bitmasks.
This module keeps their tuple-based formulations — a dict union-find for
components and spanning forests, the per-round ``normalize_edge`` churn
step and the frozenset free-edge test — as test-local references, and
checks on seeded grids that both produce the same graphs, components and
random draws.  A schedule's ids are checked against its own tuples.
"""

import random

import pytest

from repro.adversaries.lower_bound import LowerBoundAdversary, LowerBoundRoundStats
from repro.adversaries.oblivious import ControlledChurnAdversary
from repro.core.messages import ControlMessage, RequestMessage, TokenMessage
from repro.core.observation import RoundObservation
from repro.core.problem import random_assignment_problem, single_source_problem
from repro.core.state import edge_id
from repro.core.tokens import Token
from repro.dynamics.connectivity import (
    connected_components,
    ensure_connected,
    is_connected,
    mask_components,
    mask_spanning_forest,
    spanning_forest,
)
from repro.utils.ids import normalize_edge
from repro.utils.validation import ConfigurationError
from tests.conftest import SCHEDULE_ADVERSARIES, schedule_adversary

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
            return False
        if self.rank[root_u] < self.rank[root_v]:
            root_u, root_v = root_v, root_u
        self.parent[root_v] = root_u
        if self.rank[root_u] == self.rank[root_v]:
            self.rank[root_u] += 1
        return True


def reference_connected_components(nodes, edges):
    node_list = list(nodes)
    uf = ReferenceUnionFind(node_list)
    for u, v in edges:
        uf.union(u, v)
    groups = {}
    for node in node_list:
        groups.setdefault(uf.find(node), set()).add(node)
    return list(groups.values())


def reference_spanning_forest(nodes, edges):
    uf = ReferenceUnionFind(list(nodes))
    forest = set()
    for u, v in sorted(normalize_edge(a, b) for (a, b) in edges):
        if uf.union(u, v):
            forest.add((u, v))
    return forest


def reference_connecting_edges(components, rng):
    if len(components) <= 1:
        return set()
    representatives = [rng.choice(sorted(component)) for component in components]
    return {
        normalize_edge(left, right)
        for left, right in zip(representatives, representatives[1:])
    }


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


class ReferenceLowerBound:
    """The tuple formulation of the free-edge adversary's round step:
    frozenset ``K'`` sets, a membership test per node pair, and the
    union-find forest and components of the free edges."""

    def __init__(self, problem, inclusion_probability, rng):
        self.nodes = list(problem.nodes)
        self.rng = rng
        self.kprime = {
            node: frozenset(
                token
                for token in problem.tokens
                if rng.random() < inclusion_probability
            )
            for node in self.nodes
        }
        self.round_stats = []

    @staticmethod
    def broadcast_token(payload):
        if isinstance(payload, TokenMessage):
            return payload.token
        return None

    def is_free(self, token_u, token_v, knowledge_u, knowledge_v, kprime_u, kprime_v):
        u_harmless = token_u is None or token_u in knowledge_v or token_u in kprime_v
        v_harmless = token_v is None or token_v in knowledge_u or token_v in kprime_u
        return u_harmless and v_harmless

    def free_edges(self, observation):
        nodes = self.nodes
        tokens = {
            node: self.broadcast_token(observation.broadcast_payloads.get(node))
            for node in nodes
        }
        free = set()
        for index, u in enumerate(nodes):
            for v in nodes[index + 1 :]:
                if self.is_free(
                    tokens[u],
                    tokens[v],
                    observation.knowledge[u],
                    observation.knowledge[v],
                    self.kprime[u],
                    self.kprime[v],
                ):
                    free.add(normalize_edge(u, v))
        return free

    def edges_for_round(self, round_index, observation):
        free = self.free_edges(observation)
        forest = reference_spanning_forest(self.nodes, free)
        components = reference_connected_components(self.nodes, free)
        connectors = reference_connecting_edges(components, self.rng)
        self.round_stats.append(
            LowerBoundRoundStats(
                round_index=round_index,
                broadcasting_nodes=len(observation.broadcasting_nodes()),
                free_components=len(components),
                non_free_edges_added=len(connectors),
            )
        )
        return forest | connectors


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
            # Repeated edges, as callers may pass them, change no forest.
            forest_edges = list(edges) + list(edges)[: trial % 3]
            assert spanning_forest(nodes, forest_edges) == reference_spanning_forest(
                nodes, forest_edges
            )

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


# ---------------------------------------------------------------------------
# Schedule replay
# ---------------------------------------------------------------------------

class TestScheduleIdsMatchTheirTuples:
    N = 10
    #: The schedule length; the rounds after it repeat the last graph.
    ROUNDS = 30
    PLAYED = range(1, ROUNDS + 6)

    def adversary(self, name):
        adversary = schedule_adversary(name, self.N, self.ROUNDS, seed=7)
        adversary.reset(single_source_problem(self.N, 1), random.Random(0))
        return adversary

    @pytest.mark.parametrize("name", SCHEDULE_ADVERSARIES)
    def test_ids_encode_the_round_tuples(self, name):
        adversary = self.adversary(name)
        index_of = {node: index for index, node in enumerate(adversary.nodes)}
        previous_edges = previous_ids = None
        repeats = 0
        for round_index in self.PLAYED:
            edges = adversary.edges_for_round(round_index, None)
            ids = adversary.edge_ids_for_round(round_index, None, index_of)
            assert ids == {edge_id(index_of[u], index_of[v], self.N) for u, v in edges}
            if edges == previous_edges:
                # The kernel skips the delta of an identical id object.
                assert ids is previous_ids
                repeats += 1
            previous_edges, previous_ids = edges, ids
        assert repeats >= len(self.PLAYED) - self.ROUNDS

    @pytest.mark.parametrize("name", SCHEDULE_ADVERSARIES)
    def test_foreign_index_map_goes_through_tuples(self, name):
        adversary = self.adversary(name)
        n = self.N
        reversed_index = {
            node: n - 1 - index for index, node in enumerate(adversary.nodes)
        }
        for round_index in self.PLAYED:
            edges = adversary.edges_for_round(round_index, None)
            assert adversary.edge_ids_for_round(round_index, None, reversed_index) == {
                edge_id(reversed_index[u], reversed_index[v], n) for u, v in edges
            }


# ---------------------------------------------------------------------------
# Spanning forests
# ---------------------------------------------------------------------------


class TestSpanningForest:
    def test_mask_forest_is_lexicographic_kruskal(self):
        # Edges 0-1, 0-2, 1-2, 2-3: Kruskal in lexicographic order drops 1-2.
        adj = [0b0110, 0b0101, 0b1011, 0b0100]
        assert mask_spanning_forest(adj) == [(0, 1), (0, 2), (2, 3)]
        assert mask_spanning_forest([]) == []

    def test_self_loops_are_rejected(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            spanning_forest([0, 1, 2], [(0, 1), (2, 2)])


# ---------------------------------------------------------------------------
# Lower-bound (free-edge) adversary
# ---------------------------------------------------------------------------

PAYLOAD_MIXES = ("silent", "flooding", "one-shot", "non-token", "unknown")


def mix_payloads(mix, problem, knowledge, rng):
    """One round's broadcast payloads of the given kind."""
    nodes = problem.nodes
    if mix == "silent":
        return {node: None for node in nodes}
    if mix == "flooding":
        # One token, sent by every node that holds it.
        token = rng.choice(problem.tokens)
        return {
            node: TokenMessage(token) if token in knowledge[node] else None
            for node in nodes
        }
    if mix == "one-shot":
        # A different known token per node.
        return {
            node: TokenMessage(rng.choice(sorted(knowledge[node])))
            if knowledge[node]
            else None
            for node in nodes
        }
    if mix == "non-token":
        payloads = {}
        for node in nodes:
            token = rng.choice(problem.tokens)
            payloads[node] = rng.choice(
                [
                    None,
                    RequestMessage(token.source, token.index),
                    ControlMessage("probe", node),
                    TokenMessage(token) if token in knowledge[node] else None,
                ]
            )
        return payloads
    # "unknown": a token no other node knows — one only the sender holds,
    # else one outside the token universe.
    outside = Token(source=max(nodes) + 1, index=1)
    payloads = {}
    for node in nodes:
        others = set()
        for other in nodes:
            if other != node:
                others |= knowledge[other]
        own = sorted(knowledge[node] - others)
        payloads[node] = TokenMessage(own[0] if own else outside)
    return payloads


class TestLowerBoundMatchesTupleReference:
    ROUNDS = 2 * len(PAYLOAD_MIXES)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40])
    @pytest.mark.parametrize("k", [1, 5, 40])
    @pytest.mark.parametrize("inclusion", [0.0, 0.25, 1.0])
    def test_edges_ids_stats_and_rng_match_the_reference(self, n, k, inclusion):
        seed = n * 1000 + k * 10 + int(inclusion * 4)
        problem = random_assignment_problem(n, k, seed=seed)
        nodes = problem.nodes
        index_of = {node: index for index, node in enumerate(nodes)}
        token_index = {token: index for index, token in enumerate(sorted(problem.tokens))}

        reference_rng = random.Random(seed)
        reference = ReferenceLowerBound(problem, inclusion, reference_rng)
        # Fed masks only (as the kernel does), knowledge only (as
        # hand-built observations are), and knowledge through the tuple view.
        adversaries, rngs = [], []
        for _ in range(3):
            adversary, rng = LowerBoundAdversary(inclusion), random.Random(seed)
            adversary.reset(problem, rng)
            adversaries.append(adversary)
            rngs.append(rng)
        from_masks, from_knowledge, as_tuples = adversaries
        assert from_masks.kprime_sets == reference.kprime

        world = random.Random(seed + 1)
        knowledge = {node: set(problem.initial_knowledge[node]) for node in nodes}
        for round_index in range(1, self.ROUNDS + 1):
            mix = PAYLOAD_MIXES[round_index % len(PAYLOAD_MIXES)]
            payloads = mix_payloads(mix, problem, knowledge, world)
            frozen = {node: frozenset(knowledge[node]) for node in nodes}
            masks = tuple(
                sum(1 << token_index[token] for token in knowledge[node])
                for node in nodes
            )
            with_knowledge = RoundObservation(
                round_index, knowledge=frozen, broadcast_payloads=payloads
            )
            with_masks = RoundObservation(
                round_index,
                knowledge={},
                broadcast_payloads=payloads,
                knowledge_masks=masks,
            )

            assert from_masks.free_edges(with_masks) == reference.free_edges(
                with_knowledge
            )
            expected = reference.edges_for_round(round_index, with_knowledge)
            expected_ids = {edge_id(index_of[u], index_of[v], n) for u, v in expected}
            assert from_masks.edge_ids_for_round(round_index, with_masks, index_of) == (
                expected_ids
            )
            assert from_knowledge.edge_ids_for_round(
                round_index, with_knowledge, index_of
            ) == expected_ids
            assert as_tuples.edges_for_round(round_index, with_knowledge) == expected

            for node in nodes:
                for token in problem.tokens:
                    if world.random() < 0.15:
                        knowledge[node].add(token)

        for adversary in adversaries:
            assert adversary.round_stats == reference.round_stats
        after = reference_rng.random()
        assert [rng.random() for rng in rngs] == [after] * 3

    def test_foreign_index_map_goes_through_tuples(self):
        problem = random_assignment_problem(8, 6, seed=3)
        nodes = problem.nodes
        reversed_index = {node: len(nodes) - 1 - index for index, node in enumerate(nodes)}
        observation = RoundObservation(
            1,
            knowledge=dict(problem.initial_knowledge),
            broadcast_payloads={node: None for node in nodes},
        )
        native, foreign = LowerBoundAdversary(), LowerBoundAdversary()
        native.reset(problem, random.Random(4))
        foreign.reset(problem, random.Random(4))
        edges = native.edges_for_round(1, observation)
        assert foreign.edge_ids_for_round(1, observation, reversed_index) == {
            edge_id(reversed_index[u], reversed_index[v], len(nodes)) for u, v in edges
        }
