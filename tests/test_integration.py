"""Integration tests: whole-library scenarios that cross module boundaries.

These tests exercise the same pipelines as the benchmark harnesses, but at
smaller scale, and check the *shape* claims of the paper:

* the unicast algorithms solve dissemination correctly on every workload;
* flooding pays Θ(n²) amortized while the adversary-competitive unicast cost
  stays near-linear for large k;
* adversary-competitive accounting absorbs the cost caused by churn;
* the oblivious random-walk algorithm beats plain Multi-Source-Unicast on
  n-gossip instances.
"""

import pytest

from repro import (
    ControlledChurnAdversary,
    Experiment,
    FloodingAlgorithm,
    LowerBoundAdversary,
    MultiSourceUnicastAlgorithm,
    NaiveUnicastAlgorithm,
    ObliviousMultiSourceAlgorithm,
    PotentialTracker,
    RandomChurnObliviousAdversary,
    RequestCuttingAdversary,
    ScenarioSpec,
    ScheduleAdversary,
    SingleSourceUnicastAlgorithm,
    SpanningTreeAlgorithm,
    Simulator,
    StaticAdversary,
    fit_power_law,
    n_gossip_problem,
    random_assignment_problem,
    single_source_problem,
    uniform_multi_source_problem,
    stabilize_schedule,
    churn_schedule,
    static_complete_schedule,
)
from repro.core.engine import run_execution
from tests.conftest import path_edges


class TestCrossAlgorithmCorrectness:
    """Every algorithm solves its intended problem class on shared workloads."""

    @pytest.mark.parametrize("make_algorithm", [
        SingleSourceUnicastAlgorithm,
        MultiSourceUnicastAlgorithm,
        NaiveUnicastAlgorithm,
        SpanningTreeAlgorithm,
    ])
    def test_unicast_algorithms_solve_single_source_on_static_graph(self, make_algorithm):
        problem = single_source_problem(9, 5)
        result = run_execution(
            problem, make_algorithm(), StaticAdversary(9, path_edges(9)), seed=1
        )
        assert result.completed
        result.verify_dissemination()

    @pytest.mark.parametrize("make_algorithm", [
        MultiSourceUnicastAlgorithm,
        NaiveUnicastAlgorithm,
        lambda: ObliviousMultiSourceAlgorithm(force_two_phase=True, center_probability=0.3),
    ])
    def test_unicast_algorithms_solve_n_gossip_under_churn(self, make_algorithm):
        problem = n_gossip_problem(10)
        result = run_execution(
            problem, make_algorithm(), RandomChurnObliviousAdversary(edge_probability=0.35), seed=2
        )
        assert result.completed
        result.verify_dissemination()

    def test_flooding_solves_the_lower_bound_instance(self):
        problem = random_assignment_problem(12, 9, seed=3)
        adversary = LowerBoundAdversary()
        result = run_execution(problem, FloodingAlgorithm(), adversary, seed=3)
        assert result.completed
        tracker = PotentialTracker(problem, adversary.kprime_sets)
        trajectory = tracker.replay(result.events, result.rounds)
        assert trajectory.final == tracker.maximum_potential()


class TestShapeOfTheBounds:
    """Qualitative reproduction of the paper's headline comparisons."""

    def test_flooding_amortized_cost_scales_superlinearly_in_n(self):
        """E2/E9: amortized flooding cost against the worst-case adversary grows
        roughly like n² (we only check clearly-superlinear growth: exponent > 1.3)."""
        sizes = [8, 12, 16, 20]
        amortized = []
        for n in sizes:
            problem = random_assignment_problem(n, n, seed=n)
            result = run_execution(problem, FloodingAlgorithm(), LowerBoundAdversary(), seed=n)
            assert result.completed
            amortized.append(result.amortized_messages())
        exponent, _ = fit_power_law(sizes, amortized)
        assert exponent > 1.3

    def test_single_source_amortized_competitive_cost_scales_linearly(self):
        """E3: for k = 2n the adversary-competitive amortized cost of Algorithm 1
        grows roughly linearly in n (exponent well below 2)."""
        sizes = [8, 12, 16, 24]
        amortized = []
        for n in sizes:
            problem = single_source_problem(n, 2 * n)
            result = run_execution(
                problem,
                SingleSourceUnicastAlgorithm(),
                ControlledChurnAdversary(changes_per_round=3, edge_probability=0.3),
                seed=n,
            )
            assert result.completed
            amortized.append(max(1.0, result.amortized_adversary_competitive_messages()))
        exponent, _ = fit_power_law(sizes, amortized)
        assert exponent < 1.6

    def test_unicast_beats_flooding_for_large_k(self):
        """The headline comparison: for k = Ω(n) the unicast algorithm's
        adversary-competitive amortized cost is far below flooding's Θ(n²)."""
        n, k = 14, 28
        flooding_problem = single_source_problem(n, k)
        flood = run_execution(
            flooding_problem, FloodingAlgorithm(), LowerBoundAdversary(), seed=4
        )
        unicast = run_execution(
            single_source_problem(n, k),
            SingleSourceUnicastAlgorithm(),
            ControlledChurnAdversary(changes_per_round=4, edge_probability=0.3),
            seed=4,
        )
        assert flood.completed and unicast.completed
        assert (
            unicast.amortized_adversary_competitive_messages()
            < flood.amortized_messages() / 4
        )

    def test_churn_cost_is_absorbed_by_the_adversary_budget(self):
        """E10: raising the churn budget raises the raw message count of
        Algorithm 1 but the adversary-competitive cost stays within the same
        O(n² + nk) envelope."""
        n, k = 12, 12
        costs = {}
        for budget in (0, 4, 12):
            result = run_execution(
                single_source_problem(n, k),
                SingleSourceUnicastAlgorithm(),
                ControlledChurnAdversary(changes_per_round=budget, edge_probability=0.3),
                seed=5,
            )
            assert result.completed
            costs[budget] = result
        assert costs[12].total_messages >= costs[0].total_messages
        envelope = 3 * (n * n + n * k)
        for result in costs.values():
            assert result.adversary_competitive_messages() <= envelope

    def test_oblivious_algorithm_beats_multi_source_on_n_gossip(self):
        """E6: with many sources, the random-walk source reduction lowers the
        total message count relative to plain Multi-Source-Unicast."""
        n = 16
        problem = n_gossip_problem(n)
        adversary = lambda: ScheduleAdversary(static_complete_schedule(n))
        plain = run_execution(problem, MultiSourceUnicastAlgorithm(), adversary(), seed=6)
        walks = run_execution(
            problem,
            ObliviousMultiSourceAlgorithm(force_two_phase=True, center_probability=0.15),
            adversary(),
            seed=6,
        )
        assert plain.completed and walks.completed
        assert walks.total_messages < plain.total_messages

    def test_static_spanning_tree_amortized_cost_near_linear_for_large_k(self):
        """E8: the static baseline achieves O(n²/k + n) amortized messages."""
        n, k = 12, 48
        problem = single_source_problem(n, k)
        result = run_execution(
            problem, SpanningTreeAlgorithm(), ScheduleAdversary(static_complete_schedule(n)), seed=7
        )
        assert result.completed
        assert result.amortized_messages() <= 4 * n


class TestExperimentPipeline:
    def test_sweep_aggregation_round_trip(self):
        base = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 8, "num_tokens": 8},
            algorithm="single-source",
            adversary="churn",
            adversary_params={"changes_per_round": 2, "edge_probability": 0.35},
            seed=11,
            repetitions=2,
        )
        specs = [
            base.with_params(problem={"num_nodes": n, "num_tokens": n})
            for n in (8, 12)
        ]
        rows = Experiment.from_specs(specs).run().aggregate(by=["n"]).rows
        assert [row["n"] for row in rows] == [8, 12]
        assert all(row["completed"] for row in rows)
        assert rows[1]["total_messages_mean"] > rows[0]["total_messages_mean"]

    def test_simulator_is_reusable_across_configurations(self):
        problem = uniform_multi_source_problem(10, 3, 9, seed=8)
        schedule = stabilize_schedule(churn_schedule(10, 500, churn_fraction=0.3, seed=8), 3)
        result = Simulator(
            problem,
            MultiSourceUnicastAlgorithm(),
            ScheduleAdversary(schedule),
            seed=8,
        ).run()
        assert result.completed
        assert result.topological_changes == schedule.topological_changes(result.rounds)

    def test_request_cutting_adversary_inflates_tc_not_competitive_cost(self):
        n, k = 10, 10
        problem = single_source_problem(n, k)
        cut = run_execution(
            problem,
            SingleSourceUnicastAlgorithm(),
            RequestCuttingAdversary(cut_fraction=0.7, edge_probability=0.3),
            seed=9,
        )
        calm = run_execution(
            single_source_problem(n, k),
            SingleSourceUnicastAlgorithm(),
            ControlledChurnAdversary(changes_per_round=0, edge_probability=0.3),
            seed=9,
        )
        assert cut.completed and calm.completed
        assert cut.topological_changes > calm.topological_changes
        envelope = 3 * (n * n + n * k)
        assert cut.adversary_competitive_messages() <= envelope
