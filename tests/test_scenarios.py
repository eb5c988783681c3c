"""Tests for the declarative Scenario API: registries, specs and the runner."""

import importlib
import json
import random

import pytest

from repro.algorithms.base import TokenForwardingAlgorithm
from repro.api import Experiment
from repro.core.problem import DisseminationProblem
from repro.obs.events import CellCompleted, RunFinished
from repro.scenarios import (
    ADVERSARY_REGISTRY,
    ALGORITHM_REGISTRY,
    PROBLEM_REGISTRY,
    ScenarioSpec,
    materialize,
    record_to_json_line,
    repetition_seed,
    run_scenario,
    run_spec,
    sweep,
)
from repro.scenarios.builtins import _SCHEDULE_CACHE_SIZE
from repro.scenarios.registry import Registry
from repro.utils.validation import ConfigurationError
from tests.conftest import SCHEDULE_ADVERSARIES, schedule_adversary

#: Values used to satisfy required constructor parameters in bulk tests.
REQUIRED_PARAM_VALUES = {
    "num_nodes": 6,
    "num_tokens": 4,
    "num_sources": 2,
}


def required_params(entry):
    return {
        info.name: REQUIRED_PARAM_VALUES[info.name]
        for info in entry.parameters()
        if info.required
    }


class TestBuiltinRegistries:
    def test_expected_names_are_registered(self):
        assert "single-source" in ALGORITHM_REGISTRY
        assert "oblivious" in ALGORITHM_REGISTRY
        assert "churn" in ADVERSARY_REGISTRY
        assert "lower-bound" in ADVERSARY_REGISTRY
        assert "n-gossip" in PROBLEM_REGISTRY
        assert "random-placement" in PROBLEM_REGISTRY

    def test_every_algorithm_is_constructible_by_name(self):
        for entry in ALGORITHM_REGISTRY.entries():
            algorithm = entry.create(**required_params(entry))
            assert isinstance(algorithm, TokenForwardingAlgorithm), entry.name

    def test_every_adversary_is_constructible_by_name(self):
        for entry in ADVERSARY_REGISTRY.entries():
            adversary = entry.create(**required_params(entry))
            assert hasattr(adversary, "reset"), entry.name
            assert hasattr(adversary, "edges_for_round"), entry.name

    def test_every_problem_is_constructible_by_name(self):
        for entry in PROBLEM_REGISTRY.entries():
            problem = entry.create(**required_params(entry))
            assert isinstance(problem, DisseminationProblem), entry.name

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="single-source"):
            ALGORITHM_REGISTRY.get("no-such-algorithm")

    def test_near_miss_gets_a_did_you_mean_suggestion(self):
        with pytest.raises(ConfigurationError, match="did you mean 'flooding'"):
            ALGORITHM_REGISTRY.get("floodng")
        with pytest.raises(ConfigurationError, match="did you mean 'churn'"):
            ADVERSARY_REGISTRY.get("chrun")
        with pytest.raises(ConfigurationError, match="did you mean 'n-gossip'"):
            PROBLEM_REGISTRY.get("ngossip")

    def test_far_miss_has_no_suggestion_but_lists_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ALGORITHM_REGISTRY.get("zzzzzz")
        message = str(excinfo.value)
        assert "did you mean" not in message
        assert "flooding" in message

    def test_lookup_miss_never_escapes_as_a_key_error(self):
        with pytest.raises(ConfigurationError):
            ALGORITHM_REGISTRY.get("floodng")
        try:
            ALGORITHM_REGISTRY.get("floodng")
        except KeyError:  # pragma: no cover - the regression this guards
            pytest.fail("registry misses must raise ConfigurationError, not KeyError")
        except ConfigurationError:
            pass

    def test_unknown_parameter_is_rejected_with_known_parameters(self):
        with pytest.raises(ConfigurationError, match="changes_per_round"):
            ADVERSARY_REGISTRY.create("churn", bogus=1)

    def test_oblivious_defaults_match_the_historical_cli(self):
        entry = ALGORITHM_REGISTRY.get("oblivious")
        defaults = {info.name: info.default for info in entry.parameters()}
        assert defaults["force_two_phase"] is True
        assert defaults["center_probability"] == 0.2


class TestRegistryExtension:
    def test_decorator_registers_and_returns_the_factory(self):
        registry = Registry("widget")

        @registry.register("my-widget", defaults={"size": 3})
        def make_widget(size: int = 1):
            """A widget."""
            return ("widget", size)

        assert registry.names() == ["my-widget"]
        assert registry.create("my-widget") == ("widget", 3)
        assert registry.create("my-widget", size=5) == ("widget", 5)
        assert registry.get("my-widget").description == "A widget."
        assert make_widget(2) == ("widget", 2)

    def test_duplicate_registration_is_rejected_unless_replaced(self):
        registry = Registry("widget")
        registry.register("w")(lambda: 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("w")(lambda: 2)
        registry.register("w", replace=True)(lambda: 3)
        assert registry.create("w") == 3


class TestBuiltinsRegisteredByPath:
    """The library's own components are registered by import path and
    imported when an entry first needs its factory."""

    def path_entries(self):
        from repro.backends import BACKEND_REGISTRY

        for registry in (
            ALGORITHM_REGISTRY,
            ADVERSARY_REGISTRY,
            PROBLEM_REGISTRY,
            BACKEND_REGISTRY,
        ):
            for entry in registry.entries():
                if getattr(entry, "path", ""):
                    yield registry.kind, entry

    def test_each_path_resolves_to_the_object_its_home_module_defines(self):
        resolved = {}
        for kind, entry in self.path_entries():
            module_name, _, attribute = entry.path.partition(":")
            home = importlib.import_module(module_name)
            assert entry.factory is getattr(home, attribute), entry.path
            assert entry.factory.__module__ == module_name, entry.path
            resolved[(kind, entry.name)] = entry.path
        kinds = [kind for kind, _ in resolved]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            "algorithm": 7,
            "adversary": 7,
            "problem": 4,
            "backend": 3,
        }

    def test_lookups_resolve_nothing_and_a_missing_module_fails_at_first_use(self):
        registry = Registry("widget")
        registry._register_path("ghost", "repro.no_such_module:Ghost")
        assert "ghost" in registry
        assert registry.names() == ["ghost"]
        entry = registry.get("ghost")
        uses = (
            lambda: entry.factory,
            lambda: entry.description,
            entry.parameters,
            entry.describe,
            lambda: registry.create("ghost"),
        )
        for use in uses:
            with pytest.raises(ConfigurationError, match="repro.no_such_module:Ghost"):
                use()


def small_spec(**overrides):
    fields = dict(
        problem="single-source",
        problem_params={"num_nodes": 8, "num_tokens": 6},
        algorithm="single-source",
        adversary="churn",
        adversary_params={"changes_per_round": 2},
        seed=11,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestScenarioSpec:
    def test_json_round_trip_is_identity(self):
        spec = small_spec(repetitions=3, max_rounds=500, name="round-trip")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_for_every_builtin_combination_shape(self):
        specs = [
            small_spec(),
            small_spec(problem="n-gossip", problem_params={"num_nodes": 6},
                       algorithm="multi-source"),
            small_spec(problem="random-placement",
                       problem_params={"num_nodes": 6, "num_tokens": 6},
                       algorithm="flooding", adversary="lower-bound",
                       adversary_params={}),
        ]
        for spec in specs:
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_json_fields_are_rejected(self):
        payload = json.loads(small_spec().to_json())
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            ScenarioSpec.from_dict(payload)

    def test_invalid_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(repetitions=0)
        with pytest.raises(ConfigurationError):
            small_spec(seed="nope")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(problem="", algorithm="a", adversary="b")

    def test_label_defaults_to_component_names(self):
        assert small_spec().label == "single-source-vs-churn-on-single-source"
        assert small_spec(name="custom").label == "custom"

    def test_scenario_key_ignores_the_name(self):
        assert small_spec(name="a").scenario_key() == small_spec(name="b").scenario_key()

    def test_repetition_seeds_are_stable_and_distinct(self):
        spec = small_spec(repetitions=3)
        seeds = [repetition_seed(spec, r) for r in range(3)]
        assert len(set(seeds)) == 3
        assert seeds == [repetition_seed(spec, r) for r in range(3)]


class TestSweep:
    def test_empty_grid_returns_the_base(self):
        base = small_spec()
        assert sweep(base, {}) == [base]

    def test_cross_product_expansion(self):
        base = small_spec()
        specs = sweep(base, {"problem.num_nodes": [8, 12, 16], "seed": [0, 1]})
        assert len(specs) == 6
        assert [s.problem_params["num_nodes"] for s in specs] == [8, 8, 12, 12, 16, 16]
        assert [s.seed for s in specs] == [0, 1, 0, 1, 0, 1]
        # The base is untouched.
        assert base.seed == 11

    def test_top_level_and_nested_keys(self):
        specs = sweep(small_spec(), {"algorithm": ["single-source"],
                                     "adversary.changes_per_round": [1, 3]})
        assert [s.adversary_params["changes_per_round"] for s in specs] == [1, 3]

    def test_invalid_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid sweep key"):
            sweep(small_spec(), {"nonsense_key": [1]})
        with pytest.raises(ConfigurationError, match="invalid sweep key"):
            sweep(small_spec(), {"problem_params.num_nodes": [1]})

    def test_empty_values_are_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            sweep(small_spec(), {"seed": []})


class TestMaterialization:
    def test_materialize_builds_live_objects(self):
        scenario = materialize(small_spec())
        assert isinstance(scenario.problem, DisseminationProblem)
        assert scenario.problem.num_nodes == 8
        assert isinstance(scenario.algorithm, TokenForwardingAlgorithm)
        assert hasattr(scenario.adversary, "edges_for_round")

    def test_randomized_problem_gets_a_derived_seed(self):
        spec = small_spec(
            problem="multi-source",
            problem_params={"num_nodes": 10, "num_sources": 3, "num_tokens": 6},
            algorithm="multi-source",
        )
        # Without an explicit problem seed the sources must still be the
        # same on every materialization (no hidden nondeterminism).
        first = materialize(spec).problem
        second = materialize(spec).problem
        assert first.sources == second.sources

    def test_explicit_problem_seed_is_respected(self):
        spec = small_spec(
            problem="multi-source",
            problem_params={"num_nodes": 10, "num_sources": 3, "num_tokens": 6,
                            "seed": 123},
            algorithm="multi-source",
        )
        assert materialize(spec).problem.sources == materialize(spec).problem.sources


class TestSharedSchedules:
    """Schedule adversaries with equal int-seeded parameters share one
    immutable schedule; each ``create`` still returns its own adversary."""

    PARAMS = {"num_nodes": 8, "num_rounds": 20, "degree": 4, "seed": 3}

    def create(self, **overrides):
        return ADVERSARY_REGISTRY.create(
            "rewiring-regular", **{**self.PARAMS, **overrides}
        )

    @pytest.mark.parametrize("name", SCHEDULE_ADVERSARIES)
    def test_equal_parameters_share_the_schedule(self, name):
        first = schedule_adversary(name, 8, 20, seed=3)
        second = schedule_adversary(name, 8, 20, seed=3)
        assert first is not second
        assert first.schedule is second.schedule
        assert first.name == second.name == name

    def test_a_different_seed_builds_its_own_schedule(self):
        assert self.create().schedule is not self.create(seed=4).schedule

    def test_unseeded_and_rng_seeded_schedules_are_never_shared(self):
        assert self.create(seed=None).schedule is not self.create(seed=None).schedule
        rng = random.Random(3)
        first, second = self.create(seed=rng), self.create(seed=rng)
        assert first.schedule is not second.schedule
        assert first.schedule != second.schedule  # the first build advanced rng

    def test_a_cached_schedule_never_answers_a_rejected_input(self):
        self.create(num_nodes=18, num_rounds=1)
        with pytest.raises(ConfigurationError, match="num_nodes must be an int"):
            self.create(num_nodes=18.0, num_rounds=1)
        with pytest.raises(ConfigurationError, match="num_rounds must be an int"):
            self.create(num_nodes=18, num_rounds=True)
        # An unhashable value (``--set adversary.rewire_probability=[0.5]``)
        # bypasses the cache and reaches the generator's own check.
        with pytest.raises(ConfigurationError, match="must be a number"):
            self.create(rewire_probability=[0.5])

    def test_the_cache_is_bounded(self):
        first = self.create(seed=100).schedule
        for seed in range(101, 101 + _SCHEDULE_CACHE_SIZE):
            self.create(seed=seed)
        rebuilt = self.create(seed=100).schedule
        assert rebuilt is not first
        assert rebuilt == first


class TestRunner:
    def test_run_scenario_returns_a_full_result(self):
        result = run_scenario(small_spec())
        assert result.completed
        assert result.num_nodes == 8
        assert result.total_messages > 0

    def test_run_scenario_rejects_out_of_range_repetition(self):
        with pytest.raises(ConfigurationError, match="repetition"):
            run_scenario(small_spec(), repetition=1)

    def test_run_spec_produces_one_record_per_repetition(self):
        records = run_spec(small_spec(repetitions=3))
        assert [record["repetition"] for record in records] == [0, 1, 2]
        assert all(record["completed"] for record in records)
        assert len({record["seed"] for record in records}) == 3

    def test_records_are_json_ready(self):
        record = run_spec(small_spec())[0]
        rebuilt = json.loads(record_to_json_line(record))
        assert rebuilt == record
        assert ScenarioSpec.from_dict(rebuilt["spec"]) == small_spec()

    def test_parallel_batch_is_byte_identical_to_serial(self, tmp_path):
        specs = sweep(
            small_spec(repetitions=2),
            {"problem.num_nodes": [8, 10, 12], "seed": [1, 2]},
        )
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = Experiment.from_specs(specs).run(workers=1).records()
        parallel = Experiment.from_specs(specs).run(workers=2).records()
        for path, records in ((serial_path, serial), (parallel_path, parallel)):
            path.write_text(
                "".join(record_to_json_line(record) + "\n" for record in records)
            )
        assert serial == parallel
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert len(serial_path.read_text().strip().splitlines()) == len(specs) * 2

    def test_progress_callback_sees_every_spec_in_order(self):
        specs = [small_spec(seed=seed, name=f"seed-{seed}") for seed in (0, 1, 2)]
        seen = []
        Experiment.from_specs(specs).observe(seen.append).run().records()
        completed = [event for event in seen if isinstance(event, CellCompleted)]
        assert [(event.index, event.total, event.scenario) for event in completed] == [
            (0, 3, "seed-0"),
            (1, 3, "seed-1"),
            (2, 3, "seed-2"),
        ]
        assert isinstance(seen[-1], RunFinished)

    def test_invalid_workers_are_rejected(self):
        experiment = Experiment.from_specs([small_spec()])
        for workers in (0, -1, True, 1.5):
            with pytest.raises(ConfigurationError, match="workers"):
                experiment.run(workers=workers)

    def test_non_spec_items_are_rejected(self):
        with pytest.raises(ConfigurationError, match="ScenarioSpec"):
            Experiment.from_specs([{"problem": "single-source"}])
        with pytest.raises(ConfigurationError, match="ScenarioSpec"):
            Experiment.from_spec({"problem": "single-source"})


class TestReviewRegressions:
    def test_missing_required_parameter_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="num_nodes"):
            ADVERSARY_REGISTRY.create("static-random")
        with pytest.raises(ConfigurationError, match="requires"):
            PROBLEM_REGISTRY.create("single-source")

    def test_scenario_key_ignores_repetitions_and_max_rounds(self):
        base = small_spec(repetitions=1)
        extended = small_spec(repetitions=3, max_rounds=999)
        assert base.scenario_key() == extended.scenario_key()
        # Extending a batch keeps already-run repetitions reproducible.
        assert repetition_seed(base, 0) == repetition_seed(extended, 0)
        first = run_spec(base)[0]
        rerun = run_spec(extended)[0]
        for field in ("seed", "rounds", "total_messages", "completed"):
            assert first[field] == rerun[field]

    def test_extension_modules_are_validated(self):
        experiment = Experiment.from_specs([small_spec()])
        with pytest.raises(ConfigurationError, match="extensions"):
            experiment.extensions("")
        with pytest.raises(ConfigurationError, match="extensions"):
            experiment.extensions(object())

    def test_parallel_run_imports_extension_modules(self, tmp_path):
        # "repro.scenarios" is trivially importable in workers; this pins the
        # payload plumbing without needing a spawn-start interpreter.
        specs = sweep(small_spec(), {"seed": [0, 1]})
        records = (
            Experiment.from_specs(specs)
            .extensions("repro.scenarios")
            .run(workers=2)
            .records()
        )
        assert len(records) == 2
