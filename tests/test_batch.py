"""Tests for the vectorized batch backend (``repro.batch``).

Covers the four layers the subsystem spans: the ``BatchKnowledgeState``
(bulk array operations + columnar per-lane event buffering), the
segment-based lazy :class:`~repro.core.events.EventLog`, the steady-topology
skip machinery on adversary stages, and the end-to-end contract — records
produced by the batch kernel are field-identical to serial execution,
whether reached through :meth:`BatchBackend.run_batch`, the differential
harness, or the fluent :class:`~repro.api.Experiment` pipeline's automatic
dispatch — and the engine :func:`~repro.api.execute_group` picks for a
sweep cell.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.api import Experiment, execute_cell, execute_group
from repro.backends import BatchBackend, get_backend
from repro.backends.differential import validate_backends
from repro.batch.backend import can_vectorize_spec
from repro.core.events import (
    SEG_COLUMN,
    SEG_TRIPLES,
    EventLog,
    TokenLearning,
    column_segment,
)
from repro.core.problem import single_source_problem
from repro.core.state import BatchKnowledgeState
from repro.core.tokens import Token
from repro.dynamics.graph_sequence import DynamicGraphTrace
from repro.scenarios import ScenarioSpec, run_spec
from repro.scenarios.registry import ADVERSARY_REGISTRY
from repro.scenarios.runner import record_from_result, repetition_seed
from repro.utils.validation import ConfigurationError
from tests.conftest import adversary_params_for, random_spec


def flooding_spec(**overrides):
    """A vectorizable scenario: flooding under an oblivious adversary."""
    fields = dict(
        problem="single-source",
        problem_params={"num_nodes": 12, "num_tokens": 8},
        algorithm="flooding",
        algorithm_params={"rounds_per_token": 4},
        adversary="static-random",
        adversary_params={"num_nodes": 12},
        seed=17,
        repetitions=4,
        name="batch-test",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def adaptive_spec(**overrides):
    """A non-vectorizable scenario: the adaptive lower-bound adversary."""
    fields = dict(
        problem="single-source",
        problem_params={"num_nodes": 10, "num_tokens": 6},
        algorithm="single-source",
        adversary="star-recenter",
        seed=23,
        repetitions=3,
        name="batch-test-fallback",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestBatchKnowledgeState:
    def make_state(self, lanes=3, n=6, k=4):
        problem = single_source_problem(num_nodes=n, num_tokens=k, source=0)
        return BatchKnowledgeState(problem, lanes=lanes), problem

    def test_initial_knowledge_broadcasts_across_lanes(self):
        state, problem = self.make_state(lanes=3, n=6, k=4)
        for lane in range(3):
            for index, node in enumerate(state.nodes):
                known = {
                    state.tokens[bit] for bit in np.nonzero(state.know[lane, index])[0]
                }
                assert known == set(problem.initial_knowledge[node])
                assert state.known_counts[lane, index] == len(known)
        # Only the source starts complete, so no lane has solved dissemination.
        assert state.known_counts[:, 0].tolist() == [4, 4, 4]
        assert state.known_counts[:, 1:].sum() == 0
        assert state.completed_lanes().tolist() == [False, False, False]

    def test_per_lane_learn_touches_only_that_lane(self):
        state, _ = self.make_state(lanes=2)
        assert state.learn_lane_index(0, 2, 1)
        assert state.know[0, 2, 1] and not state.know[1, 2, 1]
        assert state.known_counts[:, 2].tolist() == [1, 0]
        # Re-learning is a no-op and buffers no second event.
        assert not state.learn_lane_index(0, 2, 1)
        assert state.known_counts[0, 2] == 1
        assert state.drain_lane_segments(0) == [
            (SEG_TRIPLES, [(0, state.nodes[2], state.tokens[1])])
        ]
        assert state.drain_lane_segments(1) == []

    def test_learn_token_bulk_updates_counts_and_buffers_columns(self):
        state, _ = self.make_state(lanes=2, n=6, k=4)
        state.begin_round(7)
        learners = np.zeros((2, 6), dtype=np.bool_)
        learners[0, [2, 4]] = True
        learners[1, 3] = True
        state.learn_token_bulk(1, learners)
        token = state.tokens[1]
        holders = learners.copy()
        holders[:, 0] = True  # the source
        assert (state.holders_column(1) == holders).all()
        assert state.known_counts[0, 2] == 1 and state.known_counts[1, 3] == 1

        lane0 = state.drain_lane_segments(0)
        assert len(lane0) == 1
        tag, round_index, seg_token, indices, _nodes = lane0[0]
        assert tag is SEG_COLUMN
        assert round_index == 7
        assert seg_token == token
        assert indices == [2, 4]  # node indices ascending within the lane
        (lane1,) = state.drain_lane_segments(1)
        assert lane1[3] == [3]
        # Draining clears the buffers.
        assert state.drain_lane_segments(0) == []

    def test_drain_lane_segments_keeps_learn_order_across_segment_kinds(self):
        state, _ = self.make_state(lanes=1, n=6, k=4)
        state.begin_round(3)
        learners = np.zeros((1, 6), dtype=np.bool_)
        learners[0, [1, 5]] = True
        state.learn_token_bulk(2, learners)
        state.learn_lane_index(0, 4, 3)
        state.learn_lane_index(0, 2, 3)
        state.begin_round(4)
        learners = np.zeros((1, 6), dtype=np.bool_)
        learners[0, 3] = True
        state.learn_token_bulk(1, learners)
        segments = state.drain_lane_segments(0)
        # Consecutive single learnings share one triples segment.
        assert [segment[0] for segment in segments] == [
            SEG_COLUMN,
            SEG_TRIPLES,
            SEG_COLUMN,
        ]
        log = EventLog()
        log.extend_segments(segments)
        nodes, tokens = state.nodes, state.tokens
        assert [(e.round_index, e.node, e.token) for e in log] == [
            (3, nodes[1], tokens[2]),
            (3, nodes[5], tokens[2]),
            (3, nodes[4], tokens[3]),
            (3, nodes[2], tokens[3]),
            (4, nodes[3], tokens[1]),
        ]
        assert state.drain_lane_segments(0) == []

    def test_completed_lanes(self):
        state, _ = self.make_state(lanes=2, n=4, k=2)
        learners = np.ones((2, 4), dtype=np.bool_)
        learners &= ~state.holders_column(0)
        state.learn_token_bulk(0, learners)
        learners = np.zeros((2, 4), dtype=np.bool_)
        learners[1] = ~state.holders_column(1)[1]
        state.learn_token_bulk(1, learners)
        assert state.completed_lanes().tolist() == [False, True]


class TestEventLogSegments:
    def test_record_returns_the_event(self):
        log = EventLog()
        node, token = 0, Token(source=0, index=1)
        event = log.record(2, node, token)
        assert event == TokenLearning(round_index=2, node=node, token=token)
        assert log.events == [event]
        assert log.total_learnings() == 1

    def test_record_bulk_and_lazy_counts(self):
        log = EventLog()
        t0, t1 = Token(source=0, index=1), Token(source=0, index=2)
        log.record_bulk(1, [(0, t0), (1, t0)])
        log.record_bulk(3, [(0, t1)])
        assert log.total_learnings() == 3
        assert log.learnings_in_round(1) == 2
        assert log.learnings_in_round(2) == 0
        assert log.learnings_of_node(0) == 2
        assert log.rounds_with_learnings() == [1, 3]
        assert log.last_learning_round() == 3
        assert [event.round_index for event in log] == [1, 1, 3]

    def test_extend_segments_matches_per_event_recording(self):
        nodes = (0, 1, 2, 3)
        t0, t1 = Token(source=0, index=1), Token(source=0, index=2)
        lazy = EventLog()
        lazy.extend_segments(
            [
                column_segment(1, t0, [0, 2], nodes),
                (SEG_TRIPLES, [(2, 3, t1)]),
                column_segment(4, t1, [1], nodes),
            ]
        )
        eager = EventLog()
        for round_index, node, token in [(1, 0, t0), (1, 2, t0), (2, 3, t1), (4, 1, t1)]:
            eager.record(round_index, node, token)
        assert lazy.events == eager.events
        assert lazy.total_learnings() == eager.total_learnings() == 4
        for round_index in range(6):
            assert lazy.learnings_in_round(round_index) == eager.learnings_in_round(
                round_index
            )
        assert lazy.max_learnings_in_a_round() == 2

    def test_empty_segments_are_dropped(self):
        log = EventLog()
        log.record_bulk(1, [])
        log.extend_segments([])
        assert log.total_learnings() == 0
        assert log.events == []
        assert log.last_learning_round() is None

    def test_record_after_materialization_stays_consistent(self):
        log = EventLog()
        t0 = Token(source=0, index=1)
        log.record_bulk(1, [(0, t0)])
        assert log.total_learnings() == 1 and len(log.events) == 1  # materialize
        log.record(2, 1, t0)
        assert log.total_learnings() == 2
        assert [event.node for event in log.events] == [0, 1]
        assert log.learnings_in_round(2) == 1
        assert log.learnings_of_node(1) == 1


class TestSteadyTopology:
    def test_schedule_adversaries_declare_their_steady_round(self):
        adversary = ADVERSARY_REGISTRY.create("static-random", num_nodes=8)
        # A static schedule repeats its single graph forever.
        assert adversary.steady_after_round == 1

    def test_adaptive_adversaries_do_not(self):
        adversary = ADVERSARY_REGISTRY.create("star-recenter")
        assert getattr(adversary, "steady_after_round", None) is None

    def test_record_unchanged_many_equals_repeated_record_unchanged(self):
        def trace():
            return DynamicGraphTrace((0, 1), keep_history=True)

        ids = frozenset({1})
        many, repeated = trace(), trace()
        many.record_ids(ids, ids, frozenset())
        repeated.record_ids(ids, ids, frozenset())
        many.record_unchanged_many(3)
        for _ in range(3):
            repeated.record_unchanged()
        assert many.num_rounds == repeated.num_rounds == 4
        for round_index in range(1, 5):
            assert many.edges_in_round(round_index) == repeated.edges_in_round(
                round_index
            )
        # A non-positive catch-up count is a no-op.
        many.record_unchanged_many(0)
        assert many.num_rounds == 4


class TestBatchIdentity:
    def test_vectorized_records_match_serial(self):
        spec = flooding_spec()
        assert can_vectorize_spec(spec)
        serial = run_spec(spec)
        results = BatchBackend().run_batch(spec)
        batch = [
            record_from_result(spec, repetition, repetition_seed(spec, repetition), result)
            for repetition, result in enumerate(results)
        ]
        assert batch == serial

    def test_single_source_groups_run_on_bitset(self):
        """Single-source has no batch program: its groups run on bitset.

        churn keeps inserting/removing edges every round, so the per-edge
        histories (the new > idle > contributive request priority) are
        exercised; the static adversary goes steady after round one.
        """
        for adversary, params in (("churn", {}), ("static-random", {"num_nodes": 10})):
            assert_group_runs_on_bitset(
                flooding_spec(
                    problem_params={"num_nodes": 10, "num_tokens": 8},
                    algorithm="single-source",
                    algorithm_params={},
                    adversary=adversary,
                    adversary_params=params,
                    seed=7,
                )
            )

    def test_fallback_records_match_serial(self):
        spec = adaptive_spec()
        assert not can_vectorize_spec(spec)
        serial = run_spec(spec)
        results = BatchBackend().run_batch(spec)
        batch = [
            record_from_result(spec, repetition, repetition_seed(spec, repetition), result)
            for repetition, result in enumerate(results)
        ]
        assert batch == serial

    def test_run_batch_honors_repetition_subset(self):
        spec = flooding_spec(repetitions=5)
        all_results = BatchBackend().run_batch(spec)
        subset = BatchBackend().run_batch(spec, repetitions=[1, 3])
        assert [r.rounds for r in subset] == [
            all_results[1].rounds,
            all_results[3].rounds,
        ]
        assert BatchBackend().run_batch(spec, repetitions=[]) == []

    def test_differential_validation_accepts_batch(self):
        report = validate_backends(
            [flooding_spec(repetitions=2), adaptive_spec(repetitions=1)],
            candidate="batch",
        )
        assert report.candidate == "batch"
        assert report.passed, [o.describe() for o in report.failures]

    def test_execution_mode_classification(self):
        backend = get_backend("batch")
        spec = flooding_spec()
        from repro.scenarios.runner import materialize

        scenario = materialize(spec)
        assert backend.execution_mode(scenario.algorithm, scenario.adversary) == (
            "vectorized"
        )
        fallback = materialize(adaptive_spec())
        assert backend.execution_mode(fallback.algorithm, fallback.adversary) == (
            "fallback"
        )


class TestExperimentAutoBatching:
    def grid(self):
        return (
            Experiment.grid(
                algorithm="flooding",
                adversary="static-random",
                num_nodes=[8, 12],
                num_tokens=6,
            )
            .seeds(3)
        )

    def test_auto_batched_records_match_forced_bitset(self):
        auto = self.grid().run().records()
        serial = self.grid().backend("bitset").run().records()
        # The backend choice is recorded (top-level and inside the embedded
        # spec); everything else must be identical.
        def strip(record):
            record = {key: value for key, value in record.items() if key != "backend"}
            record["spec"] = {
                key: value for key, value in record["spec"].items() if key != "backend"
            }
            return record

        assert [strip(r) for r in auto] == [strip(r) for r in serial]

    def test_store_backed_rerun_executes_nothing(self, tmp_path):
        store = tmp_path / "warehouse"
        first = self.grid().store(store).run()
        assert len(first.records()) == 6
        plan = self.grid().store(store).plan()
        assert len(plan.pending) == 0
        assert len(plan.cached) == 6


class TestEngineChoice:
    """``execute_group`` picks a sweep cell's engine; ``execute_cell`` never does."""

    def test_a_named_backend_runs_as_named(self):
        spec = adaptive_spec(backend="batch")
        outcomes = execute_group(spec, [0, 1, 2])
        assert [meta["backend"] for _, meta in outcomes] == ["batch"] * 3
        assert [record for record, _ in outcomes] == run_spec(spec)

    def test_execute_cell_runs_the_spec_backend(self):
        spec = adaptive_spec()
        record, meta = execute_cell(spec, 1)
        assert meta["backend"] == "reference"
        assert record == run_spec(spec)[1]

    def test_randomized_bulk_groups_match_serial(self):
        """Seeded draws of the three bulk programs under oblivious
        adversaries; k up to 140 spans multi-word token masks."""
        oblivious = [
            name
            for name in ADVERSARY_REGISTRY.names()
            if ADVERSARY_REGISTRY.create(name, **adversary_params_for(name, 6)).oblivious
        ]
        rng = random.Random(20261017)
        for _ in range(12):
            spec = random_spec(
                rng,
                algorithms=["flooding", "naive-unicast", "one-shot-flooding"],
                adversaries=oblivious,
                max_tokens=140,
                max_rounds=rng.choice([None, 40, 300]),
                repetitions=rng.randint(2, 6),
            )
            outcomes = execute_group(spec, list(range(spec.repetitions)))
            assert all(meta["backend"] == "batch" for _, meta in outcomes)
            assert [record for record, _ in outcomes] == run_spec(spec), spec.to_json()


def assert_group_runs_on_bitset(spec):
    """A default-backend group that does not vectorize runs on bitset.

    Its records equal the reference engine's and keep the caller's spec.
    """
    assert spec.backend == "reference"
    assert not can_vectorize_spec(spec), spec.algorithm
    outcomes = execute_group(spec, list(range(spec.repetitions)))
    assert [record for record, _ in outcomes] == run_spec(spec), spec.label
    assert all(meta["backend"] == "bitset" for _, meta in outcomes)
    assert all(record["spec"]["backend"] == "reference" for record, _ in outcomes)


def assert_batch_matches_serial(spec):
    """Run ``spec`` both ways and require field-identical records."""
    assert can_vectorize_spec(spec), spec.algorithm
    serial = run_spec(spec)
    results = BatchBackend().run_batch(spec)
    batch = [
        record_from_result(spec, repetition, repetition_seed(spec, repetition), result)
        for repetition, result in enumerate(results)
    ]
    assert batch == serial, spec.label


class TestFullGridIdentity:
    """Sweep groups match serial execution across the algorithm grid.

    The bulk batch programs (one-shot-flooding, naive-unicast) are pinned
    to the serial bitset kernel, field for field — rounds, message
    statistics, event order, completion — under both churning and steady
    topologies.  Multi-source and the oblivious two-phase algorithm have
    no batch program: their groups run on bitset and must match the
    reference engine.
    """

    def multi_source_spec(self, **overrides):
        fields = dict(
            problem="multi-source",
            problem_params={"num_nodes": 10, "num_tokens": 8, "num_sources": 3},
            algorithm="multi-source",
            adversary="churn",
            adversary_params={"changes_per_round": 2},
            seed=29,
            repetitions=4,
            name="batch-grid-test",
        )
        fields.update(overrides)
        return ScenarioSpec(**fields)

    def test_multi_source_groups_run_on_bitset(self):
        for adversary, params in (
            ("churn", {"changes_per_round": 2}),
            ("static-random", {"num_nodes": 10}),
        ):
            assert_group_runs_on_bitset(
                self.multi_source_spec(adversary=adversary, adversary_params=params)
            )

    def test_oblivious_two_phase_matches_serial(self):
        """Real phase 1: every repetition walks its own random walks."""
        assert_group_runs_on_bitset(
            self.multi_source_spec(
                algorithm="oblivious",
                algorithm_params={"force_two_phase": True},
                seed=31,
            )
        )

    def test_oblivious_phase_skip_matches_serial(self):
        """Below-threshold regime: phase 1 skipped, phase 2 from setup."""
        assert_group_runs_on_bitset(
            self.multi_source_spec(
                algorithm="oblivious",
                algorithm_params={"force_two_phase": False},
                seed=37,
            )
        )

    def test_oblivious_phase1_round_limit_matches_serial(self):
        """The force-delivery safeguard (limit expiry) must match serially."""
        assert_group_runs_on_bitset(
            self.multi_source_spec(
                algorithm="oblivious",
                algorithm_params={"force_two_phase": True, "phase1_round_limit": 3},
                seed=41,
            )
        )

    def test_one_shot_flooding_bulk_matches_serial(self):
        """The bulk matmul rewrite must keep serial event order exactly.

        Serial order: receivers ascending, senders ascending within a
        receiver, and a learned token's event lands at its lowest-index
        delivering sender — the lexsort in the program reproduces this.
        """
        for num_tokens in (10, 70):  # one word and two words of queue state
            assert_batch_matches_serial(
                self.multi_source_spec(
                    problem="random-placement",
                    problem_params={"num_nodes": 12, "num_tokens": num_tokens},
                    algorithm="one-shot-flooding",
                    algorithm_params={},
                    adversary="churn",
                    adversary_params={"changes_per_round": 3},
                    seed=43,
                )
            )

    def test_naive_unicast_bulk_matches_serial(self):
        """The lowest-set-bit rewrite must pick serial tokens per pair.

        k=70 forces multi-word know/sent masks (the uint64 word loop), and
        churn exercises the considered-pairs quiescence bookkeeping.
        """
        for num_tokens in (8, 70):
            assert_batch_matches_serial(
                self.multi_source_spec(
                    problem_params={
                        "num_nodes": 10,
                        "num_tokens": num_tokens,
                        "num_sources": 3,
                    },
                    algorithm="naive-unicast",
                    algorithm_params={},
                    seed=47,
                )
            )

    def test_only_the_bulk_algorithms_have_batch_programs(self):
        from repro.batch.backend import batch_program_names

        assert batch_program_names() == [
            "flooding",
            "naive-unicast",
            "one-shot-flooding",
        ]


class TestBatchSpeedupGate:
    def entry(self, scenario, algorithm, n, speedup):
        return {
            "scenario": scenario,
            "algorithm": algorithm,
            "n": n,
            "speedup": {"batch": speedup},
        }

    def test_any_entry_below_one_fails_and_is_named(self):
        from repro.benchmark import batch_speedup_gate

        entries = [
            self.entry("sweep-flooding-n128", "flooding", 128, 4.0),
            self.entry("sweep-one-shot-n64", "one-shot-flooding", 64, 0.91),
        ]
        passed, message = batch_speedup_gate(entries, 3.0)
        assert not passed
        assert "sweep-one-shot-n64" in message
        assert "0.91" in message

    def test_worst_offender_is_reported(self):
        from repro.benchmark import batch_speedup_gate

        entries = [
            self.entry("sweep-flooding-n128", "flooding", 128, 4.0),
            self.entry("sweep-naive-unicast-n32", "naive-unicast", 32, 0.97),
            self.entry("sweep-one-shot-n64", "one-shot-flooding", 64, 0.85),
        ]
        passed, message = batch_speedup_gate(entries, 3.0)
        assert not passed
        assert "2 of 3 entries" in message
        assert "sweep-one-shot-n64" in message

    def test_flooding_floor_still_applies(self):
        from repro.benchmark import batch_speedup_gate

        entries = [
            self.entry("sweep-flooding-n128", "flooding", 128, 2.5),
            self.entry("sweep-one-shot-n64", "one-shot-flooding", 64, 1.1),
        ]
        passed, message = batch_speedup_gate(entries, 3.0)
        assert not passed
        assert "sweep-flooding-n128" in message

    def test_all_entries_passing_clears_the_gate(self):
        from repro.benchmark import batch_speedup_gate

        entries = [
            self.entry("sweep-flooding-n64", "flooding", 64, 3.2),
            self.entry("sweep-flooding-n128", "flooding", 128, 4.1),
            self.entry("sweep-one-shot-n64", "one-shot-flooding", 64, 1.1),
        ]
        passed, message = batch_speedup_gate(entries, 3.0)
        assert passed
        assert "4.1" in message


class TestNumpyGate:
    def test_supports_refuses_without_numpy(self, monkeypatch):
        import repro.batch.backend as backend_module

        monkeypatch.setattr(backend_module, "numpy_available", lambda: False)
        reason = BatchBackend().supports(None, None, None)
        assert reason is not None and "repro[fast]" in reason

    def test_run_batch_raises_configuration_error_without_numpy(self, monkeypatch):
        import repro.batch.backend as backend_module

        def missing(feature="the batch backend"):
            raise ConfigurationError(f"{feature} needs numpy")

        monkeypatch.setattr(backend_module, "require_numpy", missing)
        with pytest.raises(ConfigurationError, match="numpy"):
            BatchBackend().run_batch(flooding_spec())
