"""repro — a reproduction of "The Communication Cost of Information Spreading
in Dynamic Networks" (Ahmadi, Kuhn, Kutten, Molla, Pandurangan; ICDCS 2019).

The library simulates k-token dissemination by token-forwarding algorithms on
adversarial dynamic networks and measures the paper's cost metrics: total,
amortized and adversary-competitive message complexity.

Quickstart::

    from repro import (
        single_source_problem, SingleSourceUnicastAlgorithm,
        ControlledChurnAdversary, Simulator,
    )

    problem = single_source_problem(num_nodes=30, num_tokens=60)
    result = Simulator(
        problem,
        SingleSourceUnicastAlgorithm(),
        ControlledChurnAdversary(changes_per_round=5),
        seed=7,
    ).run()
    print(result.total_messages, result.amortized_adversary_competitive_messages())

Or declaratively, through the Scenario API (registries + serializable
specs)::

    from repro import ScenarioSpec, run_scenario

    spec = ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": 30, "num_tokens": 60},
        algorithm="single-source",
        adversary="churn",
        seed=7,
    )
    print(run_scenario(spec).total_messages)

Or as one fluent expression through the Experiment API
(:mod:`repro.api`), which chains grid → run → store → aggregate →
compare → report and re-executes only what a bound store is missing::

    from repro import Experiment

    print(
        Experiment.grid(algorithm="flooding", adversary="static-random",
                        num_nodes=[16, 32, 64], num_tokens=32)
        .seeds(5)
        .backend("bitset")
        .store(".repro-store")          # re-runs skip cells already stored
        .run(workers=4)                 # streams records as they complete
        .aggregate(by=["n"])
        .compare(bounds=True)
        .report("md")
    )

Importing ``repro`` imports none of its subpackages: each public name is
imported from its home module on first access, so a process loads only
the parts of the library it uses.

See README.md for installation, the Scenario API (spec JSON, sweeps,
``--workers``), one-expression experiments and the registry extension
recipe.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.core.comm import CommunicationModel
    from repro.core.problem import (
        DisseminationProblem,
        multi_source_problem,
        n_gossip_problem,
        random_assignment_problem,
        single_source_problem,
        uniform_multi_source_problem,
    )
    from repro.core.events import EventLog, TokenLearning
    from repro.core.result import ExecutionResult
    from repro.core.metrics import MessageAccountant, MessageStatistics
    from repro.core.observation import RoundObservation
    from repro.core.engine import Simulator, run_execution
    from repro.core.tokens import Token, make_tokens
    from repro.dynamics.graph_sequence import DynamicGraphTrace, GraphSchedule
    from repro.dynamics.generators import (
        churn_schedule,
        edge_markovian_schedule,
        geometric_mobility_schedule,
        path_shuffle_schedule,
        rewiring_regular_schedule,
        star_oscillator_schedule,
        static_complete_schedule,
        static_path_schedule,
        static_star_schedule,
        static_cycle_schedule,
    )
    from repro.dynamics.stability import (
        is_sigma_edge_stable,
        minimum_edge_stability,
        stabilize_schedule,
    )
    from repro.dynamics.properties import schedule_summary
    from repro.dynamics.serialization import (
        schedule_to_json,
        schedule_from_json,
        trace_to_schedule_json,
        save_schedule,
        load_schedule,
    )
    from repro.adversaries.base import Adversary
    from repro.adversaries.adaptive import (
        AdaptiveRewiringAdversary,
        RequestCuttingAdversary,
        StarRecenterAdversary,
    )
    from repro.adversaries.oblivious import (
        ControlledChurnAdversary,
        RandomChurnObliviousAdversary,
        ScheduleAdversary,
        StaticAdversary,
    )
    from repro.adversaries.lower_bound import LowerBoundAdversary
    from repro.algorithms.flooding import FloodingAlgorithm, OneShotFloodingAlgorithm
    from repro.algorithms.multi_source import MultiSourceUnicastAlgorithm
    from repro.algorithms.naive_unicast import NaiveUnicastAlgorithm
    from repro.algorithms.oblivious_multi_source import ObliviousMultiSourceAlgorithm
    from repro.algorithms.random_walks import RandomWalkDisseminator
    from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
    from repro.algorithms.spanning_tree import SpanningTreeAlgorithm
    from repro.scenarios.registry import (
        ADVERSARY_REGISTRY,
        ALGORITHM_REGISTRY,
        PROBLEM_REGISTRY,
        register_adversary,
        register_algorithm,
        register_problem,
    )
    from repro.scenarios.spec import ScenarioSpec, sweep
    from repro.scenarios.runner import materialize, run_scenario, run_spec
    from repro.results.records import RunRecord
    from repro.results.store import RunStore
    from repro.results.aggregate import aggregate
    from repro.results.compare import compare_to_bounds, register_bound
    from repro.results.report import render_report
    from repro.analysis.potential import PotentialTracker
    from repro.analysis.experiments import fit_power_law
    from repro.analysis.bounds import (
        flooding_amortized_upper_bound,
        local_broadcast_lower_bound,
        multi_source_competitive_bound,
        oblivious_amortized_bound,
        single_source_competitive_bound,
        table1_rows,
    )
    from repro.analysis.reporting import format_table, render_table1
    from repro.api import (
        Aggregate,
        Comparison,
        Experiment,
        ExperimentError,
        ExperimentPlan,
        RunSet,
        load_runs,
    )
    from repro.utils.validation import ConfigurationError, ReproError, SimulationError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    # fluent experiment API
    "Experiment",
    "ExperimentError",
    "ExperimentPlan",
    "RunSet",
    "Aggregate",
    "Comparison",
    "load_runs",
    # core
    "CommunicationModel",
    "DisseminationProblem",
    "EventLog",
    "ExecutionResult",
    "MessageAccountant",
    "MessageStatistics",
    "RoundObservation",
    "Simulator",
    "run_execution",
    "Token",
    "TokenLearning",
    "make_tokens",
    "single_source_problem",
    "multi_source_problem",
    "uniform_multi_source_problem",
    "n_gossip_problem",
    "random_assignment_problem",
    # dynamics
    "DynamicGraphTrace",
    "GraphSchedule",
    "churn_schedule",
    "edge_markovian_schedule",
    "geometric_mobility_schedule",
    "path_shuffle_schedule",
    "rewiring_regular_schedule",
    "star_oscillator_schedule",
    "static_complete_schedule",
    "static_path_schedule",
    "static_star_schedule",
    "static_cycle_schedule",
    "is_sigma_edge_stable",
    "minimum_edge_stability",
    "stabilize_schedule",
    "schedule_summary",
    "schedule_to_json",
    "schedule_from_json",
    "trace_to_schedule_json",
    "save_schedule",
    "load_schedule",
    # adversaries
    "Adversary",
    "AdaptiveRewiringAdversary",
    "ControlledChurnAdversary",
    "LowerBoundAdversary",
    "RandomChurnObliviousAdversary",
    "RequestCuttingAdversary",
    "ScheduleAdversary",
    "StarRecenterAdversary",
    "StaticAdversary",
    # algorithms
    "FloodingAlgorithm",
    "OneShotFloodingAlgorithm",
    "NaiveUnicastAlgorithm",
    "SpanningTreeAlgorithm",
    "SingleSourceUnicastAlgorithm",
    "MultiSourceUnicastAlgorithm",
    "ObliviousMultiSourceAlgorithm",
    "RandomWalkDisseminator",
    # scenarios
    "ADVERSARY_REGISTRY",
    "ALGORITHM_REGISTRY",
    "PROBLEM_REGISTRY",
    "ScenarioSpec",
    "materialize",
    "register_adversary",
    "register_algorithm",
    "register_problem",
    "run_scenario",
    "run_spec",
    "sweep",
    # results
    "RunRecord",
    "RunStore",
    "aggregate",
    "compare_to_bounds",
    "register_bound",
    "render_report",
    # analysis
    "PotentialTracker",
    "fit_power_law",
    "flooding_amortized_upper_bound",
    "format_table",
    "local_broadcast_lower_bound",
    "multi_source_competitive_bound",
    "oblivious_amortized_bound",
    "render_table1",
    "single_source_competitive_bound",
    "table1_rows",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.core.comm": ("CommunicationModel",),
        "repro.core.problem": (
            "DisseminationProblem",
            "multi_source_problem",
            "n_gossip_problem",
            "random_assignment_problem",
            "single_source_problem",
            "uniform_multi_source_problem",
        ),
        "repro.core.events": ("EventLog", "TokenLearning"),
        "repro.core.result": ("ExecutionResult",),
        "repro.core.metrics": ("MessageAccountant", "MessageStatistics"),
        "repro.core.observation": ("RoundObservation",),
        "repro.core.engine": ("Simulator", "run_execution"),
        "repro.core.tokens": ("Token", "make_tokens"),
        "repro.dynamics.graph_sequence": ("DynamicGraphTrace", "GraphSchedule"),
        "repro.dynamics.generators": (
            "churn_schedule",
            "edge_markovian_schedule",
            "geometric_mobility_schedule",
            "path_shuffle_schedule",
            "rewiring_regular_schedule",
            "star_oscillator_schedule",
            "static_complete_schedule",
            "static_path_schedule",
            "static_star_schedule",
            "static_cycle_schedule",
        ),
        "repro.dynamics.stability": (
            "is_sigma_edge_stable",
            "minimum_edge_stability",
            "stabilize_schedule",
        ),
        "repro.dynamics.properties": ("schedule_summary",),
        "repro.dynamics.serialization": (
            "schedule_to_json",
            "schedule_from_json",
            "trace_to_schedule_json",
            "save_schedule",
            "load_schedule",
        ),
        "repro.adversaries.base": ("Adversary",),
        "repro.adversaries.adaptive": (
            "AdaptiveRewiringAdversary",
            "RequestCuttingAdversary",
            "StarRecenterAdversary",
        ),
        "repro.adversaries.oblivious": (
            "ControlledChurnAdversary",
            "RandomChurnObliviousAdversary",
            "ScheduleAdversary",
            "StaticAdversary",
        ),
        "repro.adversaries.lower_bound": ("LowerBoundAdversary",),
        "repro.algorithms.flooding": ("FloodingAlgorithm", "OneShotFloodingAlgorithm"),
        "repro.algorithms.multi_source": ("MultiSourceUnicastAlgorithm",),
        "repro.algorithms.naive_unicast": ("NaiveUnicastAlgorithm",),
        "repro.algorithms.oblivious_multi_source": ("ObliviousMultiSourceAlgorithm",),
        "repro.algorithms.random_walks": ("RandomWalkDisseminator",),
        "repro.algorithms.single_source": ("SingleSourceUnicastAlgorithm",),
        "repro.algorithms.spanning_tree": ("SpanningTreeAlgorithm",),
        "repro.scenarios.registry": (
            "ADVERSARY_REGISTRY",
            "ALGORITHM_REGISTRY",
            "PROBLEM_REGISTRY",
            "register_adversary",
            "register_algorithm",
            "register_problem",
        ),
        "repro.scenarios.spec": ("ScenarioSpec", "sweep"),
        "repro.scenarios.runner": ("materialize", "run_scenario", "run_spec"),
        "repro.results.records": ("RunRecord",),
        "repro.results.store": ("RunStore",),
        "repro.results.aggregate": ("aggregate",),
        "repro.results.compare": ("compare_to_bounds", "register_bound"),
        "repro.results.report": ("render_report",),
        "repro.analysis.potential": ("PotentialTracker",),
        "repro.analysis.experiments": ("fit_power_law",),
        "repro.analysis.bounds": (
            "flooding_amortized_upper_bound",
            "local_broadcast_lower_bound",
            "multi_source_competitive_bound",
            "oblivious_amortized_bound",
            "single_source_competitive_bound",
            "table1_rows",
        ),
        "repro.analysis.reporting": ("format_table", "render_table1"),
        "repro.api": (
            "Aggregate",
            "Comparison",
            "Experiment",
            "ExperimentError",
            "ExperimentPlan",
            "RunSet",
            "load_runs",
        ),
        "repro.utils.validation": (
            "ConfigurationError",
            "ReproError",
            "SimulationError",
        ),
    },
)
