"""Registration of every built-in algorithm, adversary and problem.

Importing this module (done automatically by :mod:`repro.scenarios`)
registers the components shipped by the library by import path: it
imports none of them, and each entry imports its component the first time
it is built or introspected.  The schedule adversaries below are factories
defined here, which import their generator when called.  The
registrations are centralized here — rather than decorating each class in
its home module — so the core packages stay import-order independent;
third-party extensions should use the decorators from
:mod:`repro.scenarios.registry` directly.

The registered names and defaults deliberately match the historical CLI
spellings (``python -m repro run --algorithm oblivious`` keeps meaning a
forced two-phase run with ``center_probability=0.2``).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable

from repro.scenarios.registry import (
    ADVERSARY_REGISTRY,
    ALGORITHM_REGISTRY,
    PROBLEM_REGISTRY,
    register_adversary,
)

if TYPE_CHECKING:
    from repro.adversaries.oblivious import ScheduleAdversary
    from repro.dynamics.graph_sequence import GraphSchedule

# -- algorithms ------------------------------------------------------------

ALGORITHM_REGISTRY._register_path(
    "flooding", "repro.algorithms.flooding:FloodingAlgorithm"
)
ALGORITHM_REGISTRY._register_path(
    "one-shot-flooding", "repro.algorithms.flooding:OneShotFloodingAlgorithm"
)
ALGORITHM_REGISTRY._register_path(
    "naive-unicast", "repro.algorithms.naive_unicast:NaiveUnicastAlgorithm"
)
ALGORITHM_REGISTRY._register_path(
    "spanning-tree", "repro.algorithms.spanning_tree:SpanningTreeAlgorithm"
)
ALGORITHM_REGISTRY._register_path(
    "single-source", "repro.algorithms.single_source:SingleSourceUnicastAlgorithm"
)
ALGORITHM_REGISTRY._register_path(
    "multi-source", "repro.algorithms.multi_source:MultiSourceUnicastAlgorithm"
)
ALGORITHM_REGISTRY._register_path(
    "oblivious",
    "repro.algorithms.oblivious_multi_source:ObliviousMultiSourceAlgorithm",
    defaults={"force_two_phase": True, "center_probability": 0.2},
)

# -- adversaries -----------------------------------------------------------

ADVERSARY_REGISTRY._register_path(
    "churn",
    "repro.adversaries.oblivious:ControlledChurnAdversary",
    defaults={"changes_per_round": 5, "edge_probability": 0.25},
    description="Oblivious adversary applying a fixed number of edge changes per round.",
)
ADVERSARY_REGISTRY._register_path(
    "static",
    "repro.adversaries.oblivious:ControlledChurnAdversary",
    defaults={"changes_per_round": 0, "edge_probability": 0.25, "name": "static"},
    description="A fixed random connected graph (controlled churn with zero changes).",
)
ADVERSARY_REGISTRY._register_path(
    "random",
    "repro.adversaries.oblivious:RandomChurnObliviousAdversary",
    defaults={"edge_probability": 0.25},
    description="Oblivious adversary redrawing a random connected graph every period.",
)
ADVERSARY_REGISTRY._register_path(
    "lower-bound", "repro.adversaries.lower_bound:LowerBoundAdversary"
)
ADVERSARY_REGISTRY._register_path(
    "request-cutting",
    "repro.adversaries.adaptive:RequestCuttingAdversary",
    defaults={"cut_fraction": 0.7},
)
ADVERSARY_REGISTRY._register_path(
    "star-recenter", "repro.adversaries.adaptive:StarRecenterAdversary"
)
ADVERSARY_REGISTRY._register_path(
    "adaptive-rewiring", "repro.adversaries.adaptive:AdaptiveRewiringAdversary"
)


# Every dynamics generator is registered as a schedule-replaying adversary so
# its parameters are sweepable (``--grid adversary.churn_fraction=...``) and
# ``python -m repro list`` shows it.  ``num_rounds`` bounds the pre-committed
# schedule; past its end the last round graph repeats (ScheduleAdversary).
#
# An oblivious adversary commits to its schedule before the execution, so
# every factory builds it through :func:`_replay`: with an int ``seed`` the
# generator call is memoized, and cells and repetitions with equal parameters
# share one immutable GraphSchedule (and its lazily computed edge ids) per
# process, in a cache of ``_SCHEDULE_CACHE_SIZE`` schedules.  Each call still
# returns a fresh ScheduleAdversary, which holds the per-execution state.

_DEFAULT_SCHEDULE_ROUNDS = 512
_SCHEDULE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE, typed=True)
def _shared_schedule(
    generator: Callable[..., GraphSchedule], **params: Any
) -> GraphSchedule:
    # ``typed=True`` keeps ``18`` and ``18.0`` (or ``1`` and ``True``) apart,
    # so an input the generator rejects never hits another input's entry.
    return generator(**params)


def _replay(
    name: str, generator: Callable[..., GraphSchedule], **params: Any
) -> ScheduleAdversary:
    """A :class:`ScheduleAdversary` named ``name`` replaying ``generator(**params)``.

    The schedule is shared when the call is reproducible and its arguments
    are hashable: ``seed`` an int (not a bool) and every parameter a number.
    A ``random.Random`` or ``None`` seed always builds afresh.
    """
    from repro.adversaries.oblivious import ScheduleAdversary

    seed = params["seed"]
    if (
        isinstance(seed, int)
        and not isinstance(seed, bool)
        and all(isinstance(value, (int, float)) for value in params.values())
    ):
        schedule = _shared_schedule(generator, **params)
    else:
        schedule = generator(**params)
    return ScheduleAdversary(schedule, name=name)


@register_adversary(
    "static-random",
    description="A static Erdős–Rényi-style connected graph fixed for the whole run.",
)
def static_random_adversary(
    num_nodes: int, edge_probability: float = 0.35, seed: int = 0
) -> ScheduleAdversary:
    """A :class:`ScheduleAdversary` replaying one static random graph."""
    from repro.dynamics.generators import static_random_schedule

    return _replay(
        "static-random",
        static_random_schedule,
        num_nodes=num_nodes,
        edge_probability=edge_probability,
        seed=seed,
    )


@register_adversary(
    "churn-schedule",
    description="Pre-committed steady churn: a fraction of edges rewired every round.",
)
def churn_schedule_adversary(
    num_nodes: int,
    num_rounds: int = _DEFAULT_SCHEDULE_ROUNDS,
    edge_probability: float = 0.1,
    churn_fraction: float = 0.3,
    seed: int = 0,
) -> ScheduleAdversary:
    from repro.dynamics.generators import churn_schedule

    return _replay(
        "churn-schedule",
        churn_schedule,
        num_nodes=num_nodes,
        num_rounds=num_rounds,
        edge_probability=edge_probability,
        churn_fraction=churn_fraction,
        seed=seed,
    )


@register_adversary(
    "edge-markovian",
    description="Edge-Markovian evolving graph: per-edge birth/death chains.",
)
def edge_markovian_adversary(
    num_nodes: int,
    num_rounds: int = _DEFAULT_SCHEDULE_ROUNDS,
    birth_probability: float = 0.02,
    death_probability: float = 0.2,
    seed: int = 0,
) -> ScheduleAdversary:
    from repro.dynamics.generators import edge_markovian_schedule

    return _replay(
        "edge-markovian",
        edge_markovian_schedule,
        num_nodes=num_nodes,
        num_rounds=num_rounds,
        birth_probability=birth_probability,
        death_probability=death_probability,
        seed=seed,
    )


@register_adversary(
    "rewiring-regular",
    description="Approximately regular expander-like graphs with per-round chord rewiring.",
)
def rewiring_regular_adversary(
    num_nodes: int,
    num_rounds: int = _DEFAULT_SCHEDULE_ROUNDS,
    degree: int = 4,
    rewire_probability: float = 0.5,
    seed: int = 0,
) -> ScheduleAdversary:
    from repro.dynamics.generators import rewiring_regular_schedule

    return _replay(
        "rewiring-regular",
        rewiring_regular_schedule,
        num_nodes=num_nodes,
        num_rounds=num_rounds,
        degree=degree,
        rewire_probability=rewire_probability,
        seed=seed,
    )


@register_adversary(
    "star-oscillator",
    description="A star whose center moves every period rounds (Θ(n) changes per move).",
)
def star_oscillator_adversary(
    num_nodes: int,
    num_rounds: int = _DEFAULT_SCHEDULE_ROUNDS,
    period: int = 1,
    seed: int = 0,
) -> ScheduleAdversary:
    from repro.dynamics.generators import star_oscillator_schedule

    return _replay(
        "star-oscillator",
        star_oscillator_schedule,
        num_nodes=num_nodes,
        num_rounds=num_rounds,
        period=period,
        seed=seed,
    )


@register_adversary(
    "path-shuffle",
    description="A Hamiltonian path reshuffled every period rounds (sparsest churn).",
)
def path_shuffle_adversary(
    num_nodes: int,
    num_rounds: int = _DEFAULT_SCHEDULE_ROUNDS,
    period: int = 1,
    seed: int = 0,
) -> ScheduleAdversary:
    from repro.dynamics.generators import path_shuffle_schedule

    return _replay(
        "path-shuffle",
        path_shuffle_schedule,
        num_nodes=num_nodes,
        num_rounds=num_rounds,
        period=period,
        seed=seed,
    )


@register_adversary(
    "geometric-mobility",
    description="Random-waypoint mobility on the unit square with a distance radius.",
)
def geometric_mobility_adversary(
    num_nodes: int,
    num_rounds: int = _DEFAULT_SCHEDULE_ROUNDS,
    radius: float = 0.35,
    speed: float = 0.05,
    seed: int = 0,
) -> ScheduleAdversary:
    from repro.dynamics.generators import geometric_mobility_schedule

    return _replay(
        "geometric-mobility",
        geometric_mobility_schedule,
        num_nodes=num_nodes,
        num_rounds=num_rounds,
        radius=radius,
        speed=speed,
        seed=seed,
    )


# -- problems --------------------------------------------------------------

PROBLEM_REGISTRY._register_path(
    "single-source",
    "repro.core.problem:single_source_problem",
    description="All k tokens start at one source node (Section 3.1).",
)
PROBLEM_REGISTRY._register_path(
    "multi-source",
    "repro.core.problem:uniform_multi_source_problem",
    description="k tokens spread evenly over s random source nodes (Section 3.2).",
)
PROBLEM_REGISTRY._register_path(
    "n-gossip",
    "repro.core.problem:n_gossip_problem",
    description="One token per node: k = n, s = n.",
)
PROBLEM_REGISTRY._register_path(
    "random-placement",
    "repro.core.problem:random_assignment_problem",
    description="Each token given to each node independently (Section-2 distribution).",
)
