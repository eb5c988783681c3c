"""Tests for the potential tracker, power-law fitting and the reporting helpers."""

import pytest

from repro.adversaries import StaticAdversary
from repro.algorithms.naive_unicast import NaiveUnicastAlgorithm
from repro.analysis.experiments import fit_power_law, scaling_exponent
from repro.analysis.potential import PotentialTracker, potential_of_knowledge
from repro.analysis.reporting import (
    format_table,
    render_aggregates,
    render_paper_vs_measured,
    render_table1,
)
from repro.api import Experiment
from repro.core.engine import run_execution
from repro.core.events import EventLog
from repro.core.problem import single_source_problem
from repro.core.tokens import Token
from repro.dynamics.generators import static_path_schedule
from repro.utils.validation import ConfigurationError
from tests.conftest import path_edges


class TestPotentialFunction:
    def test_potential_of_knowledge(self):
        knowledge = {0: frozenset({Token(0, 1)}), 1: frozenset()}
        kprime = {0: frozenset({Token(0, 1), Token(0, 2)}), 1: frozenset({Token(0, 1)})}
        assert potential_of_knowledge(knowledge, kprime) == 2 + 1

    def test_initial_potential_counts_union(self):
        problem = single_source_problem(4, 2)
        kprime = {node: frozenset({Token(0, 1)}) for node in problem.nodes}
        tracker = PotentialTracker(problem, kprime)
        # Source: |{t1,t2} ∪ {t1}| = 2; others: |{t1}| = 1 each.
        assert tracker.initial_potential == 2 + 3

    def test_maximum_potential_is_nk(self):
        problem = single_source_problem(4, 2)
        tracker = PotentialTracker(problem, {})
        assert tracker.maximum_potential() == 8

    def test_replay_ignores_learnings_already_in_kprime(self):
        problem = single_source_problem(3, 1)
        token = problem.tokens[0]
        kprime = {1: frozenset({token})}
        tracker = PotentialTracker(problem, kprime)
        events = EventLog()
        events.record(1, 1, token)  # discounted: already in K'_1
        events.record(2, 2, token)  # real progress
        trajectory = tracker.replay(events, num_rounds=2)
        assert trajectory.increases == [0, 1]
        assert trajectory.final == tracker.initial_potential + 1
        assert trajectory.total_increase == 1
        assert trajectory.max_round_increase == 1

    def test_rejects_kprime_for_unknown_node(self):
        problem = single_source_problem(3, 1)
        with pytest.raises(ConfigurationError):
            PotentialTracker(problem, {9: frozenset()})

    def test_full_execution_reaches_nk(self):
        problem = single_source_problem(6, 3)
        result = run_execution(
            problem, NaiveUnicastAlgorithm(), StaticAdversary(6, path_edges(6)), seed=1
        )
        tracker = PotentialTracker(problem, {})
        trajectory = tracker.replay(result.events, result.rounds)
        assert trajectory.final == tracker.maximum_potential()


class TestPowerLawFitting:
    def test_recovers_exact_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x**2 for x in xs]
        exponent, constant = fit_power_law(xs, ys)
        assert exponent == pytest.approx(2.0, abs=1e-9)
        assert constant == pytest.approx(3.0, rel=1e-6)

    def test_scaling_exponent_shortcut(self):
        xs = [8, 16, 32, 64]
        ys = [x**1.5 for x in xs]
        assert scaling_exponent(xs, ys) == pytest.approx(1.5, abs=1e-9)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1, 2], [1])

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1], [1])

    def test_rejects_non_positive_values(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1, 2], [0, 1])


class TestReporting:
    def test_format_table_alignment_and_content(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", True]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "yes" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_format_table_rejects_empty_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_render_table1_contains_all_regimes(self):
        rendered = render_table1(256)
        assert "k = n" in rendered
        assert "k = n^2" in rendered
        assert "O(n^2)" in rendered

    def test_render_records(self):
        records = (
            Experiment.grid(
                algorithm="single-source", adversary="churn", num_nodes=5, num_tokens=2
            )
            .run()
            .records()
        )
        rendered = render_aggregates(records, ["n", "total_messages", "rounds"])
        assert "total_messages" in rendered
        assert "5" in rendered

    def test_render_aggregates(self):
        rows = [{"n": 5, "total_messages": 10.0}, {"n": 7, "total_messages": 20.0}]
        rendered = render_aggregates(rows, ["n", "total_messages"])
        assert "20.00" in rendered or "20" in rendered

    def test_render_paper_vs_measured(self):
        rendered = render_paper_vs_measured(
            [{"experiment": "E1", "paper": "O(n^2)", "measured": "n^1.9", "verdict": "match"}]
        )
        assert "E1" in rendered and "match" in rendered
