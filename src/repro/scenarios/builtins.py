"""Registration of every built-in algorithm, adversary and problem.

Importing this module (done automatically by :mod:`repro.scenarios`)
populates the three registries with the components shipped by the library.
The registrations are centralized here — rather than decorating each class
in its home module — so the core packages stay import-order independent;
third-party extensions should use the decorators from
:mod:`repro.scenarios.registry` directly.

The registered names and defaults deliberately match the historical CLI
spellings (``python -m repro run --algorithm oblivious`` keeps meaning a
forced two-phase run with ``center_probability=0.2``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.adversaries.adaptive import (
    AdaptiveRewiringAdversary,
    RequestCuttingAdversary,
    StarRecenterAdversary,
)
from repro.adversaries.lower_bound import LowerBoundAdversary
from repro.adversaries.oblivious import (
    ControlledChurnAdversary,
    RandomChurnObliviousAdversary,
    ScheduleAdversary,
)
from repro.algorithms.flooding import FloodingAlgorithm, OneShotFloodingAlgorithm
from repro.algorithms.multi_source import MultiSourceUnicastAlgorithm
from repro.algorithms.naive_unicast import NaiveUnicastAlgorithm
from repro.algorithms.oblivious_multi_source import ObliviousMultiSourceAlgorithm
from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
from repro.algorithms.spanning_tree import SpanningTreeAlgorithm
from repro.core.problem import (
    n_gossip_problem,
    random_assignment_problem,
    single_source_problem,
    uniform_multi_source_problem,
)
from repro.dynamics.generators import (
    churn_schedule,
    edge_markovian_schedule,
    geometric_mobility_schedule,
    path_shuffle_schedule,
    rewiring_regular_schedule,
    star_oscillator_schedule,
    static_random_schedule,
)
from repro.dynamics.graph_sequence import GraphSchedule
from repro.scenarios.registry import (
    register_adversary,
    register_algorithm,
    register_problem,
)

# -- algorithms ------------------------------------------------------------

register_algorithm("flooding")(FloodingAlgorithm)
register_algorithm("one-shot-flooding")(OneShotFloodingAlgorithm)
register_algorithm("naive-unicast")(NaiveUnicastAlgorithm)
register_algorithm("spanning-tree")(SpanningTreeAlgorithm)
register_algorithm("single-source")(SingleSourceUnicastAlgorithm)
register_algorithm("multi-source")(MultiSourceUnicastAlgorithm)
register_algorithm(
    "oblivious",
    defaults={"force_two_phase": True, "center_probability": 0.2},
)(ObliviousMultiSourceAlgorithm)

# -- adversaries -----------------------------------------------------------

register_adversary(
    "churn",
    defaults={"changes_per_round": 5, "edge_probability": 0.25},
    description="Oblivious adversary applying a fixed number of edge changes per round.",
)(ControlledChurnAdversary)
register_adversary(
    "static",
    defaults={"changes_per_round": 0, "edge_probability": 0.25, "name": "static"},
    description="A fixed random connected graph (controlled churn with zero changes).",
)(ControlledChurnAdversary)
register_adversary(
    "random",
    defaults={"edge_probability": 0.25},
    description="Oblivious adversary redrawing a random connected graph every period.",
)(RandomChurnObliviousAdversary)
register_adversary("lower-bound")(LowerBoundAdversary)
register_adversary(
    "request-cutting", defaults={"cut_fraction": 0.7}
)(RequestCuttingAdversary)
register_adversary("star-recenter")(StarRecenterAdversary)
register_adversary("adaptive-rewiring")(AdaptiveRewiringAdversary)


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

register_problem(
    "single-source",
    description="All k tokens start at one source node (Section 3.1).",
)(single_source_problem)
register_problem(
    "multi-source",
    description="k tokens spread evenly over s random source nodes (Section 3.2).",
)(uniform_multi_source_problem)
register_problem(
    "n-gossip",
    description="One token per node: k = n, s = n.",
)(n_gossip_problem)
register_problem(
    "random-placement",
    description="Each token given to each node independently (Section-2 distribution).",
)(random_assignment_problem)
