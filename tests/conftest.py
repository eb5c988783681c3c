"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.adversaries import (
    ControlledChurnAdversary,
    RandomChurnObliviousAdversary,
    ScheduleAdversary,
    StaticAdversary,
)
from repro.core.problem import (
    multi_source_problem,
    n_gossip_problem,
    single_source_problem,
)
from repro.dynamics.generators import (
    static_complete_schedule,
    static_path_schedule,
)
from repro.scenarios import ADVERSARY_REGISTRY, PROBLEM_REGISTRY, ScenarioSpec


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return random.Random(12345)


@pytest.fixture
def small_single_source_problem():
    """A small single-source instance: 8 nodes, 5 tokens at node 0."""
    return single_source_problem(num_nodes=8, num_tokens=5)


@pytest.fixture
def small_multi_source_problem():
    """A small multi-source instance: 8 nodes, 3 sources, 6 tokens."""
    return multi_source_problem(8, {0: 2, 3: 1, 6: 3})


@pytest.fixture
def small_gossip_problem():
    """An n-gossip instance with 8 nodes."""
    return n_gossip_problem(8)


@pytest.fixture
def path_adversary():
    """A static path over 8 nodes."""
    return ScheduleAdversary(static_path_schedule(8, num_rounds=1), name="path")


@pytest.fixture
def complete_adversary():
    """A static complete graph over 8 nodes."""
    return ScheduleAdversary(static_complete_schedule(8, num_rounds=1), name="complete")


@pytest.fixture
def churn_adversary():
    """A mild oblivious churn adversary."""
    return ControlledChurnAdversary(changes_per_round=2, edge_probability=0.3)


def path_edges(num_nodes: int):
    """Edges of the path 0-1-...-(n-1)."""
    return [(i, i + 1) for i in range(num_nodes - 1)]


def star_edges(num_nodes: int, center: int = 0):
    """Edges of the star centred at ``center``."""
    return [(center, i) for i in range(num_nodes) if i != center]


#: The registered adversaries that replay a pre-committed schedule.
SCHEDULE_ADVERSARIES = (
    "static-random",
    "churn-schedule",
    "edge-markovian",
    "rewiring-regular",
    "star-oscillator",
    "path-shuffle",
    "geometric-mobility",
)


def schedule_adversary(name: str, num_nodes: int, num_rounds: int, seed: int):
    """Build a schedule adversary by name; ``static-random`` has no ``num_rounds``."""
    params = {"num_nodes": num_nodes, "seed": seed}
    if name != "static-random":
        params["num_rounds"] = num_rounds
    return ADVERSARY_REGISTRY.create(name, **params)


#: Problems each algorithm is drawn with; the rest accept all four.
_PROBLEMS_FOR_ALGORITHM = {
    "single-source": ("single-source",),
    "spanning-tree": ("single-source",),
    "multi-source": ("multi-source", "n-gossip"),
    "oblivious": ("multi-source", "n-gossip"),
}


def adversary_params_for(adversary: str, num_nodes: int):
    """``{"num_nodes": n}`` for adversaries that require it, else ``{}``."""
    needs_nodes = any(
        info.name == "num_nodes" and info.required
        for info in ADVERSARY_REGISTRY.get(adversary).parameters()
    )
    return {"num_nodes": num_nodes} if needs_nodes else {}


def random_spec(
    rng: random.Random,
    *,
    algorithms,
    adversaries,
    max_tokens: int = 16,
    max_rounds=300,
    repetitions: int = 1,
):
    """Draw one seeded scenario for the randomized differential tests.

    The problem is one the drawn algorithm accepts, sizes are uniform in
    ``[1, 14]`` and ``[1, max_tokens]`` (n-gossip fixes ``k = n``) and
    schedule adversaries get the ``num_nodes`` they require.
    """
    algorithm = rng.choice(algorithms)
    problem = rng.choice(
        _PROBLEMS_FOR_ALGORITHM.get(algorithm, PROBLEM_REGISTRY.names())
    )
    adversary = rng.choice(adversaries)
    num_nodes = rng.randint(1, 14)
    num_tokens = rng.randint(1, max_tokens)
    problem_params = {"num_nodes": num_nodes}
    if problem != "n-gossip":
        problem_params["num_tokens"] = num_tokens
    if problem == "multi-source":
        problem_params["num_sources"] = rng.randint(1, min(num_nodes, num_tokens))
    return ScenarioSpec(
        problem=problem,
        problem_params=problem_params,
        algorithm=algorithm,
        adversary=adversary,
        adversary_params=adversary_params_for(adversary, num_nodes),
        seed=rng.randrange(2**31),
        repetitions=repetitions,
        max_rounds=max_rounds,
    )
