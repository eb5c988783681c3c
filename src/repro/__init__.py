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

See README.md for installation, the Scenario API (spec JSON, sweeps,
``--workers``), one-expression experiments and the registry extension
recipe.
"""

from repro.core import (
    CommunicationModel,
    DisseminationProblem,
    EventLog,
    ExecutionResult,
    MessageAccountant,
    MessageStatistics,
    RoundObservation,
    Simulator,
    Token,
    TokenLearning,
    make_tokens,
    multi_source_problem,
    n_gossip_problem,
    random_assignment_problem,
    single_source_problem,
)
from repro.core.problem import uniform_multi_source_problem
from repro.core.engine import run_execution
from repro.dynamics import (
    DynamicGraphTrace,
    GraphSchedule,
    churn_schedule,
    edge_markovian_schedule,
    geometric_mobility_schedule,
    is_sigma_edge_stable,
    minimum_edge_stability,
    path_shuffle_schedule,
    rewiring_regular_schedule,
    stabilize_schedule,
    star_oscillator_schedule,
    static_complete_schedule,
    static_path_schedule,
    static_star_schedule,
    static_cycle_schedule,
    schedule_summary,
    schedule_to_json,
    schedule_from_json,
    trace_to_schedule_json,
    save_schedule,
    load_schedule,
)
from repro.adversaries import (
    Adversary,
    AdaptiveRewiringAdversary,
    ControlledChurnAdversary,
    LowerBoundAdversary,
    RandomChurnObliviousAdversary,
    RequestCuttingAdversary,
    ScheduleAdversary,
    StarRecenterAdversary,
    StaticAdversary,
)
from repro.algorithms import (
    FloodingAlgorithm,
    MultiSourceUnicastAlgorithm,
    NaiveUnicastAlgorithm,
    ObliviousMultiSourceAlgorithm,
    OneShotFloodingAlgorithm,
    RandomWalkDisseminator,
    SingleSourceUnicastAlgorithm,
    SpanningTreeAlgorithm,
)
from repro.scenarios import (
    ADVERSARY_REGISTRY,
    ALGORITHM_REGISTRY,
    PROBLEM_REGISTRY,
    ScenarioSpec,
    materialize,
    register_adversary,
    register_algorithm,
    register_problem,
    run_scenario,
    run_spec,
    sweep,
)
from repro.results import (
    RunRecord,
    RunStore,
    aggregate,
    compare_to_bounds,
    register_bound,
    render_report,
)
from repro.analysis import (
    PotentialTracker,
    fit_power_law,
    flooding_amortized_upper_bound,
    format_table,
    local_broadcast_lower_bound,
    multi_source_competitive_bound,
    oblivious_amortized_bound,
    render_table1,
    single_source_competitive_bound,
    table1_rows,
)
from repro.api import (
    Aggregate,
    Comparison,
    Experiment,
    ExperimentError,
    ExperimentPlan,
    RunSet,
    load_runs,
)
from repro.utils.validation import (
    ConfigurationError,
    ReproError,
    SimulationError,
)

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
