"""The declarative Scenario API: the single front door to the simulator.

Everything the CLI, the benchmarks and the examples run goes through three
layers:

* **registries** (:mod:`repro.scenarios.registry`) name every algorithm,
  adversary and problem, with decorator-based extension for third parties;
* **specs** (:mod:`repro.scenarios.spec`) describe a complete experiment as
  JSON-serializable data, with :func:`sweep` expanding parameter grids;
* the **runner** (:mod:`repro.scenarios.runner`) materializes a spec and
  runs its repetitions with derived per-repetition seeds.

Batches of specs run through :class:`repro.api.Experiment`, with optional
multiprocessing fan-out.  Quickstart::

    from repro import Experiment
    from repro.scenarios import ScenarioSpec, record_to_json_line, sweep

    base = ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": 16, "num_tokens": 32},
        algorithm="single-source",
        adversary="churn",
        repetitions=3,
    )
    specs = sweep(base, {"problem.num_nodes": [16, 32, 64]})
    records = Experiment.from_specs(specs).run(workers=2).records()
    with open("results.jsonl", "w") as sink:
        sink.writelines(record_to_json_line(record) + "\\n" for record in records)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace
from repro.scenarios import builtins as _builtins  # noqa: F401  (registers the built-ins)

if TYPE_CHECKING:
    from repro.scenarios.registry import (
        ADVERSARY_REGISTRY,
        ALGORITHM_REGISTRY,
        PROBLEM_REGISTRY,
        ParameterInfo,
        Registry,
        RegistryEntry,
        register_adversary,
        register_algorithm,
        register_problem,
    )
    from repro.scenarios.runner import (
        MaterializedScenario,
        materialize,
        record_from_result,
        record_to_json_line,
        repetition_seed,
        run_scenario,
        run_spec,
    )
    from repro.scenarios.spec import ScenarioSpec, load_specs, sweep

__all__ = [
    "ADVERSARY_REGISTRY",
    "ALGORITHM_REGISTRY",
    "PROBLEM_REGISTRY",
    "ParameterInfo",
    "Registry",
    "RegistryEntry",
    "register_adversary",
    "register_algorithm",
    "register_problem",
    "ScenarioSpec",
    "load_specs",
    "sweep",
    "MaterializedScenario",
    "materialize",
    "record_from_result",
    "record_to_json_line",
    "repetition_seed",
    "run_scenario",
    "run_spec",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.scenarios.registry": (
            "ADVERSARY_REGISTRY",
            "ALGORITHM_REGISTRY",
            "PROBLEM_REGISTRY",
            "ParameterInfo",
            "Registry",
            "RegistryEntry",
            "register_adversary",
            "register_algorithm",
            "register_problem",
        ),
        "repro.scenarios.runner": (
            "MaterializedScenario",
            "materialize",
            "record_from_result",
            "record_to_json_line",
            "repetition_seed",
            "run_scenario",
            "run_spec",
        ),
        "repro.scenarios.spec": ("ScenarioSpec", "load_specs", "sweep"),
    },
)
