"""Stage-level tests for the staged round kernel and the knowledge states."""

import random

import pytest

from repro.adversaries.base import Adversary
from repro.adversaries.oblivious import ControlledChurnAdversary
from repro.algorithms.flooding import FloodingAlgorithm
from repro.algorithms.naive_unicast import NaiveUnicastAlgorithm
from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
from repro.backends.differential import diff_results
from repro.core.events import TokenLearning
from repro.core.messages import (
    CompletenessMessage,
    ControlMessage,
    ReceivedMessage,
    RequestMessage,
    TokenMessage,
)
from repro.core.observation import RoundObservation, SentRecord
from repro.core.problem import (
    multi_source_problem,
    random_assignment_problem,
    single_source_problem,
)
from repro.core.rounds import (
    AccountingStage,
    AdversaryStage,
    FastRoundProgram,
    RoundKernel,
)
from repro.core.state import (
    BitsetKnowledgeState,
    MappingKnowledgeState,
    bit_indices,
    edge_id,
)
from repro.core.tokens import Token
from repro.scenarios import ADVERSARY_REGISTRY
from repro.utils.validation import (
    AdversaryViolationError,
    ConfigurationError,
)
from tests.conftest import path_edges


class FixedEdgesAdversary(Adversary):
    """Returns a fixed edge list every round (stage-level test double)."""

    oblivious = True

    def __init__(self, edges):
        super().__init__()
        self._edges = edges

    def edges_for_round(self, round_index, observation):
        return list(self._edges)


def make_stage(adversary, *, n=4, require_connected=True, keep_trace=True):
    nodes = tuple(range(n))
    index_of = {node: index for index, node in enumerate(nodes)}
    return AdversaryStage(
        nodes,
        index_of,
        adversary,
        require_connected=require_connected,
        keep_trace=keep_trace,
    )


class TestAdversaryStage:
    def test_rejects_disconnected_round_graphs(self):
        stage = make_stage(FixedEdgesAdversary([(0, 1)]), n=4)
        with pytest.raises(AdversaryViolationError, match="disconnected"):
            stage.advance(1, None, None)

    def test_disconnected_allowed_when_connectivity_disabled(self):
        stage = make_stage(
            FixedEdgesAdversary([(0, 1)]), n=4, require_connected=False
        )
        stage.advance(1, None, None)
        assert stage.adj[0] == 0b0010
        assert stage.adj[2] == 0

    def test_rejects_unknown_endpoints(self):
        stage = make_stage(FixedEdgesAdversary([(0, 99)]), n=4)
        with pytest.raises(ConfigurationError, match="outside the node set"):
            stage.advance(1, None, None)

    def test_rejects_self_loops(self):
        stage = make_stage(
            FixedEdgesAdversary(path_edges(4) + [(2, 2)]), n=4
        )
        with pytest.raises(ConfigurationError, match="self-loop"):
            stage.advance(1, None, None)

    def test_trace_and_adjacency_track_the_delta(self):
        class Switching(Adversary):
            oblivious = True

            def edges_for_round(self, round_index, observation):
                return path_edges(4) if round_index == 1 else [(0, 1), (1, 3), (3, 2)]

        stage = make_stage(Switching(), n=4)
        stage.advance(1, None, None)
        assert stage.trace.edges_in_round(1) == frozenset({(0, 1), (1, 2), (2, 3)})
        stage.advance(2, None, None)
        assert stage.inserted_ids and stage.removed_ids
        assert stage.trace.topological_changes() == 4  # 3 initial + 1 swap
        assert stage.neighbors_view()[1] == frozenset({0, 3})

    def test_oblivious_adversaries_never_receive_observations(self):
        class Recording(FixedEdgesAdversary):
            def __init__(self, edges):
                super().__init__(edges)
                self.observations = []

            def edges_for_round(self, round_index, observation):
                self.observations.append(observation)
                return super().edges_for_round(round_index, observation)

        adversary = Recording(path_edges(4))
        stage = make_stage(adversary, n=4)
        # The stage never touches the program for an oblivious adversary:
        # passing None proves obliviousness is enforced structurally.
        stage.advance(1, None, None)
        assert adversary.observations == [None]


class FixedIdsAdversary(Adversary):
    """Hands the stage a fixed set of integer edge ids every round."""

    oblivious = True

    def __init__(self, ids):
        super().__init__()
        self._ids = frozenset(ids)

    def edges_for_round(self, round_index, observation):
        raise AssertionError("the stage must ask for edge ids")

    def edge_ids_for_round(self, round_index, observation, index_of):
        return self._ids


class TestAdversaryStageIdPath:
    """The stage's contract for adversaries that return edge ids."""

    PATH_IDS = [edge_id(0, 1, 4), edge_id(1, 2, 4), edge_id(2, 3, 4)]

    @pytest.mark.parametrize("bad_id", [16, 99, -1])
    def test_rejects_out_of_range_ids(self, bad_id):
        stage = make_stage(FixedIdsAdversary(self.PATH_IDS + [bad_id]), n=4)
        with pytest.raises(ConfigurationError, match="not a canonical edge id"):
            stage.advance(1, None, None)

    def test_rejects_self_loop_ids(self):
        stage = make_stage(FixedIdsAdversary(self.PATH_IDS + [2 * 4 + 2]), n=4)
        with pytest.raises(ConfigurationError, match="self-loop"):
            stage.advance(1, None, None)

    def test_rejects_non_canonical_ids(self):
        # 3 * 4 + 1 names the edge {1, 3} with the larger index first.
        stage = make_stage(FixedIdsAdversary(self.PATH_IDS + [3 * 4 + 1]), n=4)
        with pytest.raises(ConfigurationError, match="not a canonical edge id"):
            stage.advance(1, None, None)

    def test_rejects_disconnected_id_sets(self):
        stage = make_stage(FixedIdsAdversary([edge_id(0, 1, 4), edge_id(2, 3, 4)]), n=4)
        with pytest.raises(AdversaryViolationError, match="disconnected"):
            stage.advance(1, None, None)

    def test_disconnected_round_leaves_the_adjacency_untouched(self):
        class CutsInRoundTwo(FixedIdsAdversary):
            def edge_ids_for_round(self, round_index, observation, index_of):
                if round_index == 1:
                    return self._ids
                return frozenset({edge_id(0, 1, 4), edge_id(2, 3, 4)})

        stage = make_stage(CutsInRoundTwo(TestAdversaryStageIdPath.PATH_IDS), n=4)
        stage.advance(1, None, None)
        before = list(stage.adj)
        with pytest.raises(AdversaryViolationError):
            stage.advance(2, None, None)
        assert stage.adj == before
        assert stage.trace.num_rounds == 1

    def test_adjacency_list_is_updated_in_place(self):
        # Fast programs alias ``kernel.graph.adj``; rebinding it would leave
        # them reading a stale graph.
        problem = single_source_problem(12, 4)
        adversary = ControlledChurnAdversary(changes_per_round=3, edge_probability=0.3)
        adversary.reset(problem, random.Random(8))
        stage = make_stage(adversary, n=12)
        adj = stage.adj
        for round_index in range(1, 30):
            stage.advance(round_index, None, None)
            assert stage.adj is adj
        expected = {node: set() for node in range(12)}
        for u, v in stage.trace.edges_in_round(29):
            expected[u].add(v)
            expected[v].add(u)
        assert stage.neighbors_view() == {
            node: frozenset(neighbors) for node, neighbors in expected.items()
        }

    def test_churn_ids_encode_its_tuples(self):
        problem = single_source_problem(16, 4)
        n = problem.num_nodes
        index_of = {node: index for index, node in enumerate(problem.nodes)}
        by_ids = ControlledChurnAdversary(changes_per_round=4, edge_probability=0.3)
        by_tuples = ControlledChurnAdversary(changes_per_round=4, edge_probability=0.3)
        by_ids.reset(problem, random.Random(11))
        by_tuples.reset(problem, random.Random(11))
        for round_index in range(1, 40):
            ids = by_ids.edge_ids_for_round(round_index, None, index_of)
            edges = by_tuples.edges_for_round(round_index, None)
            assert ids == {edge_id(index_of[u], index_of[v], n) for u, v in edges}

    def test_churn_encodes_foreign_index_maps_through_tuples(self):
        # An index map other than positions in the sorted node set falls
        # back to the validating tuple conversion.
        problem = single_source_problem(10, 4)
        n = problem.num_nodes
        reversed_index = {node: n - 1 - index for index, node in enumerate(problem.nodes)}
        by_ids = ControlledChurnAdversary(changes_per_round=2, edge_probability=0.3)
        by_tuples = ControlledChurnAdversary(changes_per_round=2, edge_probability=0.3)
        by_ids.reset(problem, random.Random(5))
        by_tuples.reset(problem, random.Random(5))
        for round_index in range(1, 10):
            ids = by_ids.edge_ids_for_round(round_index, None, reversed_index)
            edges = by_tuples.edges_for_round(round_index, None)
            assert ids == {
                edge_id(reversed_index[u], reversed_index[v], n) for u, v in edges
            }

    def test_default_reuses_ids_of_a_repeated_frozenset(self):
        edges = frozenset(path_edges(4))

        class Replaying(Adversary):
            oblivious = True

            def edges_for_round(self, round_index, observation):
                return edges

        adversary = Replaying()
        index_of = {node: node for node in range(4)}
        first = adversary.edge_ids_for_round(1, None, index_of)
        assert adversary.edge_ids_for_round(2, None, index_of) is first
        assert first == frozenset(self.PATH_IDS)


class TestNeighborsView:
    def test_view_is_rebuilt_only_after_a_delta_and_is_read_only(self):
        n, length = 12, 15
        adversary = ADVERSARY_REGISTRY.create(
            "rewiring-regular", num_nodes=n, num_rounds=length, seed=4
        )
        adversary.reset(single_source_problem(n, 4), random.Random(0))
        stage = make_stage(adversary, n=n)
        previous = None
        rebuilt = reused = 0
        for round_index in range(1, length + 6):
            stage.advance(round_index, None, None)
            view = stage.neighbors_view()
            expected = {node: set() for node in range(n)}
            for u, v in stage.trace.edges_in_round(round_index):
                expected[u].add(v)
                expected[v].add(u)
            assert view == {
                node: frozenset(neighbors) for node, neighbors in expected.items()
            }
            if stage.inserted_ids or stage.removed_ids:
                assert view is not previous
                rebuilt += 1
            else:
                assert view is previous
                reused += 1
            assert stage.neighbors_view() is view
            previous = view
        # Past the schedule's end the graph is steady and the view is kept.
        assert rebuilt >= 2 and reused >= 5
        with pytest.raises(TypeError):
            view[0] = frozenset()


class RecordingAdversary(Adversary):
    """Adaptive path adversary logging when (and with what) it is invoked."""

    oblivious = False

    def __init__(self, log):
        super().__init__()
        self.log = log

    def edges_for_round(self, round_index, observation):
        self.log.append(("adversary", round_index, observation))
        nodes = list(self.nodes)
        return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]


class RecordingFlooding(FloodingAlgorithm):
    """Logs the commit; being a subclass it takes the exchange path."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def select_broadcasts(self, round_index):
        self.log.append(("commit", round_index))
        return super().select_broadcasts(round_index)


class RecordingNaiveUnicast(NaiveUnicastAlgorithm):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def select_messages(self, round_index, neighbors):
        self.log.append(("select", round_index))
        return super().select_messages(round_index, neighbors)


class TestStageOrdering:
    """Section 1.3's model asymmetry: local broadcast commits payloads before
    the adversary fixes the graph; unicast fixes the graph first."""

    def test_local_broadcast_commits_before_the_graph_is_fixed(self):
        log = []
        problem = single_source_problem(5, 2)
        kernel = RoundKernel(
            problem, RecordingFlooding(log), RecordingAdversary(log), seed=0
        )
        kernel.run()
        commit_1 = log.index(("commit", 1))
        adversary_1 = next(
            index for index, entry in enumerate(log) if entry[0] == "adversary"
        )
        assert commit_1 < adversary_1
        # The committed payloads are visible to the adaptive adversary.
        observation = log[adversary_1][2]
        assert observation is not None
        assert observation.broadcasting_nodes() == [0]

    def test_unicast_fixes_the_graph_before_messages_are_selected(self):
        log = []
        problem = single_source_problem(5, 2)
        kernel = RoundKernel(
            problem, RecordingNaiveUnicast(log), RecordingAdversary(log), seed=0
        )
        kernel.run()
        adversary_1 = log.index(
            next(entry for entry in log if entry[0] == "adversary")
        )
        select_1 = log.index(("select", 1))
        assert adversary_1 < select_1
        # No payloads exist when the unicast adversary picks the graph.
        observation = log[adversary_1][2]
        assert observation is not None
        assert dict(observation.broadcast_payloads) == {}


class ScopedRecordingAdversary(Adversary):
    """Adaptive path adversary recording each observation it receives under
    a declared ``observed_fields`` scope."""

    oblivious = False

    def __init__(self, observed_fields):
        super().__init__()
        self.observed_fields = observed_fields
        self.observations = []

    def edges_for_round(self, round_index, observation):
        self.observations.append(observation)
        nodes = list(self.nodes)
        return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]


class TestKnowledgeMasksObservation:
    """Exchange and fast programs build ``knowledge_masks`` only when the
    adversary declares it, in node-index order over the sorted tokens."""

    MASKS = frozenset({"knowledge_masks"})
    SETS = frozenset({"knowledge"})

    def observations(self, algorithm_class, fast, scope):
        problem = multi_source_problem(7, {0: 3, 3: 2, 6: 2})
        adversary = ScopedRecordingAdversary(scope)
        kernel = RoundKernel(
            problem,
            algorithm_class(),
            adversary,
            state_factory=BitsetKnowledgeState if fast else MappingKnowledgeState,
            allow_fast_programs=fast,
            seed=2,
        )
        assert isinstance(kernel.program, FastRoundProgram) == fast
        kernel.run()
        assert adversary.observations
        return problem, adversary.observations

    @pytest.mark.parametrize("algorithm_class", [FloodingAlgorithm, NaiveUnicastAlgorithm])
    @pytest.mark.parametrize("fast", [False, True])
    def test_masks_are_built_only_when_declared(self, algorithm_class, fast):
        problem, full = self.observations(algorithm_class, fast, None)
        token_index = {
            token: index for index, token in enumerate(sorted(problem.tokens))
        }
        for observation in full:
            assert observation.knowledge_masks == tuple(
                sum(1 << token_index[token] for token in observation.knowledge[node])
                for node in problem.nodes
            )
        _, masks_only = self.observations(algorithm_class, fast, self.MASKS)
        assert [o.knowledge_masks for o in masks_only] == [
            o.knowledge_masks for o in full
        ]
        assert all(o.knowledge == {} for o in masks_only)
        _, sets_only = self.observations(algorithm_class, fast, self.SETS)
        assert all(o.knowledge_masks == () for o in sets_only)
        assert [o.knowledge for o in sets_only] == [o.knowledge for o in full]

    @pytest.mark.parametrize("algorithm_class", [FloodingAlgorithm, NaiveUnicastAlgorithm])
    def test_both_program_families_observe_the_same_masks(self, algorithm_class):
        _, exchange = self.observations(algorithm_class, False, self.MASKS)
        _, fast = self.observations(algorithm_class, True, self.MASKS)
        assert [o.knowledge_masks for o in exchange] == [o.knowledge_masks for o in fast]


class TestKnowledgeStateParity:
    """The two representations must be observationally identical."""

    def states(self):
        problem = multi_source_problem(6, {0: 3, 3: 2, 5: 1})
        return problem, MappingKnowledgeState(problem), BitsetKnowledgeState(problem)

    def test_random_learn_sequences_stay_in_lockstep(self):
        problem, mapping, bitset = self.states()
        rng = random.Random(7)
        pairs = [
            (node, token) for node in problem.nodes for token in problem.tokens
        ]
        rng.shuffle(pairs)
        for node, token in pairs:
            assert mapping.learn(node, token) == bitset.learn(node, token)
            for check_node in problem.nodes:
                assert mapping.known_tokens(check_node) == bitset.known_tokens(
                    check_node
                )
                assert mapping.missing_tokens(check_node) == bitset.missing_tokens(
                    check_node
                )
                assert mapping.is_node_complete(check_node) == bitset.is_node_complete(
                    check_node
                )
            assert mapping.incomplete_count() == bitset.incomplete_count()
            assert mapping.all_complete() == bitset.all_complete()
        assert mapping.all_complete() and bitset.all_complete()
        # The buffered learning events drain in the same order.
        assert mapping.drain_learnings() == bitset.drain_learnings()
        assert mapping.drain_learnings() == []

    @pytest.mark.parametrize("seed", range(6))
    def test_masks_track_random_learn_sequences(self, seed):
        rng = random.Random(seed)
        problem = random_assignment_problem(9, 12, seed=seed)
        mapping, bitset = MappingKnowledgeState(problem), BitsetKnowledgeState(problem)
        token_index = mapping.token_index
        for _ in range(150):
            node_index, token_bit = rng.randrange(mapping.n), rng.randrange(mapping.k)
            if rng.random() < 0.5:
                node, token = mapping.nodes[node_index], mapping.tokens[token_bit]
                assert mapping.learn(node, token) == bitset.learn(node, token)
            else:
                assert mapping.learn_index(node_index, token_bit) == bitset.learn_index(
                    node_index, token_bit
                )
            for index, node in enumerate(mapping.nodes):
                expected = sum(1 << token_index[t] for t in mapping.known_tokens(node))
                assert mapping.know_mask(index) == expected == bitset.know_mask(index)

    def test_index_layer_matches_across_representations(self):
        problem, mapping, bitset = self.states()
        for index in range(mapping.n):
            assert mapping.know_mask(index) == bitset.know_mask(index)
            assert mapping.known_count(index) == bitset.known_count(index)
        for token_bit in range(mapping.k):
            assert mapping.holders_mask(token_bit) == bitset.holders_mask(token_bit)

    def test_bit_indices_enumerates_ascending(self):
        assert bit_indices(0) == []
        assert bit_indices(0b101001) == [0, 3, 5]


class TestAccountingParity:
    """One kernel, either state: message statistics and events must agree."""

    def run_with(self, state_factory):
        problem = single_source_problem(10, 8)
        kernel = RoundKernel(
            problem,
            SingleSourceUnicastAlgorithm(),
            ControlledChurnAdversary(changes_per_round=2),
            state_factory=state_factory,
            seed=3,
        )
        return kernel.run()

    def test_exchange_program_results_identical_on_either_state(self):
        mapping_result = self.run_with(MappingKnowledgeState)
        bitset_result = self.run_with(BitsetKnowledgeState)
        assert diff_results(mapping_result, bitset_result) == []
        assert (
            mapping_result.messages.per_node_messages
            == bitset_result.messages.per_node_messages
        )
        assert mapping_result.events.events == bitset_result.events.events


class TestKernelTrace:
    def test_edge_lifetime_normalizes_reversed_edges(self):
        problem = single_source_problem(6, 3)
        kernel = RoundKernel(
            problem,
            NaiveUnicastAlgorithm(),
            FixedEdgesAdversary(path_edges(6)),
            seed=1,
        )
        result = kernel.run()
        lifetime = result.trace.edge_lifetime((0, 1))
        assert lifetime == result.rounds > 0
        assert result.trace.edge_lifetime((1, 0)) == lifetime


class TestFastProgramStateContract:
    def test_fast_programs_require_the_bitset_state(self):
        problem = single_source_problem(4, 2)
        with pytest.raises(ConfigurationError, match="BitsetKnowledgeState"):
            RoundKernel(
                problem,
                FloodingAlgorithm(),
                ControlledChurnAdversary(),
                state_factory=MappingKnowledgeState,
                allow_fast_programs=True,
            )

    def test_exchange_programs_accept_either_state(self):
        problem = single_source_problem(4, 2)
        for state_factory in (MappingKnowledgeState, BitsetKnowledgeState):
            kernel = RoundKernel(
                problem,
                FloodingAlgorithm(),
                ControlledChurnAdversary(changes_per_round=1),
                state_factory=state_factory,
                allow_fast_programs=False,
                seed=1,
            )
            assert kernel.run().completed


class TestAccountingStage:
    def test_round_bracketing_is_enforced(self):
        from repro.core.comm import CommunicationModel

        stage = AccountingStage(CommunicationModel.UNICAST, (0, 1, 2))
        with pytest.raises(ConfigurationError):
            stage.close_round(1, None)
        stage.begin_round()
        with pytest.raises(ConfigurationError):
            stage.begin_round()

    def test_counters_aggregate_by_kind_round_and_node(self):
        from repro.core.comm import CommunicationModel

        class NoLearnings:
            def drain_learnings(self):
                return []

        stage = AccountingStage(CommunicationModel.UNICAST, (0, 1, 2))
        stage.begin_round()
        stage.count(0, "token")
        stage.count(0, "request")
        stage.count_bulk("token", 2)
        stage.per_node_counts[2] += 2
        stage.close_round(1, NoLearnings())
        statistics = stage.statistics()
        assert statistics.total_messages == 4
        assert statistics.messages_by_kind == {"token": 3, "request": 1}
        assert statistics.per_round_messages == [4]
        assert statistics.per_node_messages == {0: 2, 2: 2}


class TestSlottedHotClasses:
    """The hot per-round dataclasses carry __slots__: no per-instance dict,
    and attribute injection is rejected."""

    def instances(self):
        token = Token(source=0, index=1)
        return [
            TokenMessage(token),
            CompletenessMessage(source=0),
            RequestMessage(source=0, index=1),
            ControlMessage(tag="join"),
            ReceivedMessage(sender=0, payload=TokenMessage(token)),
            SentRecord(sender=0, receiver=None, payload=TokenMessage(token)),
            RoundObservation(round_index=1, knowledge={0: frozenset()}),
            TokenLearning(round_index=1, node=0, token=token),
        ]

    def test_no_instance_dict(self):
        for instance in self.instances():
            assert not hasattr(instance, "__dict__"), type(instance).__name__

    def test_attribute_injection_is_rejected(self):
        for instance in self.instances():
            with pytest.raises(AttributeError):
                # object.__setattr__ bypasses the frozen-dataclass guard, so
                # only __slots__ stops a genuinely new attribute.
                object.__setattr__(instance, "sneaky_attribute", 1)
