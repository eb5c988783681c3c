"""Tests for the pluggable execution backends and the differential harness."""

import json
import multiprocessing
import pickle
import random

import pytest

from repro.backends import (
    BACKEND_REGISTRY,
    BitsetBackend,
    EngineBackend,
    ReferenceBackend,
    get_backend,
    register_backend,
)
from repro.backends.bitset import fast_path_names
from repro.algorithms.multi_source import MultiSourceUnicastAlgorithm
from repro.algorithms.oblivious_multi_source import ObliviousMultiSourceAlgorithm
from repro.core.tokens import Token
from repro.backends.differential import (
    DifferentialReport,
    default_differential_specs,
    diff_results,
    validate_backends,
)
from repro.cli import main
from repro.core.engine import Simulator
from repro.core.problem import single_source_problem
from repro.algorithms.flooding import FloodingAlgorithm, OneShotFloodingAlgorithm
from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
from repro.adversaries.lower_bound import LowerBoundAdversary
from repro.adversaries.oblivious import ControlledChurnAdversary
from repro.scenarios import ScenarioSpec, repetition_seed, run_scenario, run_spec, sweep
from repro.utils.validation import ConfigurationError, SimulationError
from tests.conftest import random_spec


def bitset_spec(**overrides):
    fields = dict(
        problem="single-source",
        problem_params={"num_nodes": 10, "num_tokens": 8},
        algorithm="single-source",
        adversary="churn",
        adversary_params={"changes_per_round": 2},
        seed=5,
        backend="bitset",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestBackendRegistry:
    def test_builtin_backends_are_registered(self):
        assert "reference" in BACKEND_REGISTRY
        assert "bitset" in BACKEND_REGISTRY

    def test_get_backend_returns_engine_backends(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("bitset"), BitsetBackend)

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="bitset"):
            get_backend("no-such-backend")

    def test_non_engine_backend_registration_is_rejected_at_use(self):
        register_backend("bogus-backend", replace=True)(lambda: object())
        try:
            with pytest.raises(ConfigurationError, match="EngineBackend"):
                get_backend("bogus-backend")
        finally:
            BACKEND_REGISTRY._entries.pop("bogus-backend", None)

    def test_custom_backend_is_dispatchable_from_a_spec(self):
        calls = []

        @register_backend("recording-backend", replace=True)
        class RecordingBackend(EngineBackend):
            name = "recording-backend"

            def run(self, problem, algorithm, adversary, **kwargs):
                calls.append(problem.num_nodes)
                return ReferenceBackend().run(problem, algorithm, adversary, **kwargs)

        try:
            result = run_scenario(bitset_spec(backend="recording-backend"))
            assert result.completed
            assert calls == [10]
        finally:
            BACKEND_REGISTRY._entries.pop("recording-backend", None)


class TestBitsetCapabilities:
    """Capability discovery: native fast programs where algorithms provide
    them, the generic kernel path everywhere else — nothing is refused."""

    def test_every_scenario_is_supported(self):
        problem = single_source_problem(6, 4)
        backend = BitsetBackend()
        assert backend.supports(
            problem, OneShotFloodingAlgorithm(), ControlledChurnAdversary()
        ) is None
        assert backend.supports(
            problem, FloodingAlgorithm(), LowerBoundAdversary()
        ) is None
        assert backend.supports(
            problem, SingleSourceUnicastAlgorithm(), ControlledChurnAdversary()
        ) is None

    def test_native_fast_paths_are_discovered_from_the_registry(self):
        names = fast_path_names()
        for expected in (
            "flooding",
            "one-shot-flooding",
            "naive-unicast",
            "single-source",
            "spanning-tree",
            "multi-source",
            "oblivious",
        ):
            assert expected in names

    def test_execution_mode_reports_native_vs_generic(self):
        backend = BitsetBackend()
        assert backend.execution_mode(FloodingAlgorithm()) == "native"
        # The two-phase oblivious algorithm drives the real algorithm during
        # its rng-driven random-walk phase but switches to the multi-source
        # fast program in phase 2 — still a native program from the outside.
        assert backend.execution_mode(ObliviousMultiSourceAlgorithm()) == "native"

    def test_subclasses_fall_back_to_the_generic_path(self):
        class TweakedFlooding(FloodingAlgorithm):
            """Overrides could change behaviour the fast program hardcodes."""

        assert TweakedFlooding().fast_program_factory() is None
        assert BitsetBackend().execution_mode(TweakedFlooding()) == "generic"

    def test_configured_catalog_disables_the_multi_source_fast_program(self):
        algorithm = MultiSourceUnicastAlgorithm(
            source_catalog={0: [Token(source=0, index=1)]}
        )
        assert algorithm.fast_program_factory() is None

    def test_previously_unsupported_scenarios_now_run_and_match(self):
        for overrides in (
            dict(algorithm="one-shot-flooding"),
            dict(adversary="star-recenter", adversary_params={}),
        ):
            spec = bitset_spec(**overrides)
            report = validate_backends([spec])
            assert report.passed, [
                d.describe() for o in report.failures for d in o.differences
            ]


class TestBackendEquivalence:
    """Seeded differential grids: the bitset backend must match the reference
    bitwise on every observable result field."""

    def assert_equivalent(self, spec):
        report = validate_backends([spec])
        for outcome in report.outcomes:
            assert outcome.equal, (
                f"{spec.label} rep {outcome.repetition}: "
                f"{[d.describe() for d in outcome.differences]}"
            )

    @pytest.mark.parametrize("num_nodes", [6, 12])
    @pytest.mark.parametrize("num_tokens", [4, 10])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_flooding_under_churn(self, num_nodes, num_tokens, seed):
        self.assert_equivalent(
            bitset_spec(
                algorithm="flooding",
                problem_params={"num_nodes": num_nodes, "num_tokens": num_tokens},
                seed=seed,
            )
        )

    @pytest.mark.parametrize("num_nodes", [8, 12])
    @pytest.mark.parametrize("num_tokens", [6, 14])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_source_under_churn(self, num_nodes, num_tokens, seed):
        self.assert_equivalent(
            bitset_spec(
                problem_params={"num_nodes": num_nodes, "num_tokens": num_tokens},
                adversary_params={"changes_per_round": 3},
                seed=seed,
            )
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spanning_tree_on_static_graphs(self, seed):
        self.assert_equivalent(
            bitset_spec(
                algorithm="spanning-tree",
                adversary="static-random",
                adversary_params={"num_nodes": 10},
                seed=seed,
            )
        )

    def test_heavy_churn_star_oscillator(self):
        self.assert_equivalent(
            bitset_spec(
                adversary="star-oscillator",
                adversary_params={"num_nodes": 10},
                seed=3,
            )
        )

    def test_incomplete_round_capped_runs_agree(self):
        spec = bitset_spec(max_rounds=3)
        report = validate_backends([spec])
        assert report.passed
        result = run_scenario(spec)
        assert not result.completed and result.rounds == 3

    def test_flooding_on_n_gossip(self):
        self.assert_equivalent(
            bitset_spec(
                algorithm="flooding",
                problem="n-gossip",
                problem_params={"num_nodes": 9},
            )
        )

    def test_flooding_on_random_placement(self):
        self.assert_equivalent(
            bitset_spec(
                algorithm="flooding",
                problem="random-placement",
                problem_params={"num_nodes": 8, "num_tokens": 6},
                seed=7,
            )
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_adaptive_request_cutting_matches(self, seed):
        self.assert_equivalent(
            bitset_spec(
                adversary="request-cutting",
                adversary_params={"cut_fraction": 0.7},
                seed=seed,
            )
        )

    def test_adaptive_star_recenter_on_flooding_matches(self):
        self.assert_equivalent(
            bitset_spec(
                algorithm="flooding",
                adversary="star-recenter",
                adversary_params={},
                seed=2,
            )
        )

    def test_lower_bound_adversary_matches(self):
        self.assert_equivalent(
            bitset_spec(
                algorithm="flooding",
                adversary="lower-bound",
                adversary_params={},
                problem_params={"num_nodes": 8, "num_tokens": 5},
            )
        )

    def test_multi_source_fast_program_matches(self):
        self.assert_equivalent(
            bitset_spec(
                problem="multi-source",
                problem_params={"num_nodes": 10, "num_tokens": 9, "num_sources": 3},
                algorithm="multi-source",
                adversary_params={"changes_per_round": 2},
            )
        )

    def test_naive_unicast_fast_program_matches(self):
        self.assert_equivalent(
            bitset_spec(algorithm="naive-unicast", seed=4)
        )

    def test_generic_kernel_path_matches_for_oblivious_algorithm(self):
        self.assert_equivalent(
            bitset_spec(
                problem="multi-source",
                problem_params={"num_nodes": 12, "num_tokens": 12, "num_sources": 6},
                algorithm="oblivious",
                adversary_params={"changes_per_round": 1},
            )
        )

    def test_default_grid_passes(self):
        report = validate_backends(default_differential_specs())
        assert isinstance(report, DifferentialReport)
        assert report.passed
        assert len(report.outcomes) >= 50
        covered = {spec.algorithm for spec in default_differential_specs()}
        from repro.scenarios import ALGORITHM_REGISTRY

        assert covered == set(ALGORITHM_REGISTRY.names())
        adversaries = {spec.adversary for spec in default_differential_specs()}
        # Both adversary classes are exercised.
        assert {"request-cutting", "star-recenter", "adaptive-rewiring", "lower-bound"} <= adversaries

    def test_randomized_specs_pass(self):
        """Seeded random draws beyond the fixed grid: any algorithm, any
        adversary, n in [1, 14], k in [1, 16]."""
        from repro.scenarios import ADVERSARY_REGISTRY, ALGORITHM_REGISTRY

        rng = random.Random(20261017)
        for _ in range(60):
            spec = random_spec(
                rng,
                algorithms=ALGORITHM_REGISTRY.names(),
                adversaries=ADVERSARY_REGISTRY.names(),
            )
            report = validate_backends([spec], candidate="bitset")
            assert report.passed, spec.to_json()

    def test_spec_records_are_identical_across_backends(self):
        spec = bitset_spec(repetitions=2)
        fast = run_spec(spec)
        slow = run_spec(ScenarioSpec.from_dict({**spec.to_dict(), "backend": "reference"}))
        for fast_record, slow_record in zip(fast, slow):
            fast_record = dict(fast_record)
            slow_record = dict(slow_record)
            assert fast_record.pop("spec")["backend"] == "bitset"
            assert slow_record.pop("spec")["backend"] == "reference"
            assert fast_record == slow_record


class TestDiffResults:
    def test_disagreement_is_reported_field_by_field(self):
        spec = bitset_spec()
        seed = repetition_seed(spec, 0)
        base = run_scenario(spec)
        other = run_scenario(bitset_spec(seed=spec.seed + 1))
        differences = diff_results(base, other)
        assert differences
        fields = {difference.field.split("[")[0] for difference in differences}
        assert fields & {"rounds", "total_messages", "events", "per_round_messages"}
        assert all(difference.describe()["field"] for difference in differences)
        assert seed == repetition_seed(spec, 0)

    def test_equal_results_produce_no_differences(self):
        spec = bitset_spec()
        assert diff_results(run_scenario(spec), run_scenario(spec)) == []


class TestResultsCrossProcesses:
    """Execution results hold no closures: they pickle on every backend, so
    ``multiprocessing.Pool.map(run_scenario, specs)`` works."""

    @pytest.mark.parametrize("backend", ["reference", "bitset", "batch"])
    def test_result_round_trips_through_pickle(self, backend):
        if backend == "batch":
            pytest.importorskip("numpy")
        result = run_scenario(bitset_spec(backend=backend))
        restored = pickle.loads(pickle.dumps(result))
        assert diff_results(result, restored) == []
        assert restored.events.events == result.events.events
        assert restored.trace.as_schedule() == result.trace.as_schedule()

    def test_batch_results_round_trip_through_pickle(self):
        pytest.importorskip("numpy")
        from repro.batch.backend import BatchBackend

        spec = bitset_spec(
            algorithm="flooding",
            adversary="static-random",
            adversary_params={"num_nodes": 10},
            backend="batch",
            repetitions=3,
        )
        results = BatchBackend().run_batch(spec)
        assert len(results) == 3
        for result in results:
            assert diff_results(result, pickle.loads(pickle.dumps(result))) == []

    def test_pool_map_matches_serial_runs(self):
        specs = [
            bitset_spec(backend=backend, seed=seed)
            for backend in ("reference", "bitset")
            for seed in (5, 6)
        ]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            parallel = pool.map_async(run_scenario, specs).get(timeout=120)
        assert len(parallel) == len(specs)
        for spec, result in zip(specs, parallel):
            assert diff_results(run_scenario(spec), result) == []


class TestSpecBackendField:
    def test_backend_round_trips_through_json(self):
        spec = bitset_spec()
        assert ScenarioSpec.from_json(spec.to_json()).backend == "bitset"

    def test_backend_defaults_to_reference_for_legacy_payloads(self):
        payload = bitset_spec().to_dict()
        del payload["backend"]
        assert ScenarioSpec.from_dict(payload).backend == "reference"

    def test_backend_is_an_execution_detail_not_content(self):
        fast = bitset_spec()
        slow = bitset_spec(backend="reference")
        assert fast.scenario_key() == slow.scenario_key()
        assert repetition_seed(fast, 0) == repetition_seed(slow, 0)

    def test_backend_is_sweepable(self):
        specs = sweep(bitset_spec(), {"backend": ["reference", "bitset"]})
        assert [spec.backend for spec in specs] == ["reference", "bitset"]

    def test_invalid_backend_value_is_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            bitset_spec(backend="")


class TestKeepTrace:
    """Simulator(keep_trace=False) sheds history but not results."""

    def make_results(self):
        problem = single_source_problem(10, 8)
        results = []
        for keep_trace in (True, False):
            simulator = Simulator(
                problem,
                SingleSourceUnicastAlgorithm(),
                ControlledChurnAdversary(changes_per_round=2),
                seed=3,
                keep_trace=keep_trace,
            )
            results.append(simulator.run())
        return results

    def test_results_match_with_and_without_trace(self):
        kept, dropped = self.make_results()
        assert diff_results(kept, dropped, compare_graphs=False) == []
        assert kept.topological_changes == dropped.topological_changes
        assert kept.trace.total_edge_removals() == dropped.trace.total_edge_removals()

    def test_dropped_history_rejects_past_round_queries(self):
        _, dropped = self.make_results()
        assert not dropped.trace.keeps_history
        assert dropped.trace.num_rounds == dropped.rounds
        # The current round stays queryable; earlier rounds do not.
        assert dropped.trace.edges_in_round(dropped.rounds)
        with pytest.raises(SimulationError, match="dropped"):
            dropped.trace.edges_in_round(1)
        with pytest.raises(SimulationError, match="history"):
            dropped.trace.as_schedule()

    def test_zero_round_prefixes_need_no_history(self):
        _, dropped = self.make_results()
        assert dropped.trace.topological_changes(0) == 0
        assert dropped.trace.total_edge_removals(0) == 0

    def test_bitset_trace_freezes_into_a_schedule(self):
        result = run_scenario(bitset_spec())
        schedule = result.trace.as_schedule()
        assert schedule.num_rounds == result.rounds
        assert schedule.edges_for_round(1) == result.trace.edges_in_round(1)

    def test_bitset_backend_honours_keep_trace(self):
        spec = bitset_spec()
        with_trace = run_scenario(spec)
        without_trace = run_scenario(spec, keep_trace=False)
        assert diff_results(with_trace, without_trace, compare_graphs=False) == []
        assert not without_trace.trace.keeps_history


class TestVerifyBackendCli:
    def test_single_spec_verification_passes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(bitset_spec(repetitions=2).to_json())
        assert main(["verify-backend", "--spec", str(path)]) == 0
        output = capsys.readouterr().out
        assert "PASS" in output
        assert "2 execution(s)" in output

    def test_json_report_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(bitset_spec().to_json())
        assert main(["verify-backend", "--spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["candidate"] == "bitset"
        assert payload["executions"] == 1

    def test_unknown_algorithm_spec_is_a_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        payload = bitset_spec().to_dict()
        payload["algorithm"] = "no-such-algorithm"
        path.write_text(json.dumps(payload))
        assert main(["verify-backend", "--spec", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_command_accepts_backend_flag(self, capsys):
        assert main(
            ["run", "--algorithm", "flooding", "--adversary", "churn",
             "-n", "8", "-k", "6", "--backend", "bitset", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["backend"] == "bitset"
        assert record["completed"] is True

    def test_sweep_can_compare_backends_in_the_grid(self, capsys):
        assert main(
            ["sweep", "--algorithm", "flooding", "--adversary", "churn",
             "-n", "8", "-k", "4", "--grid", "backend=reference,bitset", "--json"]
        ) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [record["spec"]["backend"] for record in records] == [
            "reference", "bitset",
        ]
        stripped = [
            {key: value for key, value in record.items() if key != "spec"}
            for record in records
        ]
        assert stripped[0] == stripped[1]

    def test_import_flag_loads_third_party_backends(self, tmp_path, capsys, monkeypatch):
        module_dir = tmp_path / "plugins"
        module_dir.mkdir()
        (module_dir / "my_backend_plugin.py").write_text(
            "from repro.backends import ReferenceBackend, register_backend\n"
            "@register_backend('plugin-backend', replace=True)\n"
            "class PluginBackend(ReferenceBackend):\n"
            "    name = 'plugin-backend'\n"
        )
        monkeypatch.syspath_prepend(str(module_dir))
        path = tmp_path / "spec.json"
        path.write_text(bitset_spec().to_json())
        try:
            assert main(
                ["verify-backend", "--import", "my_backend_plugin",
                 "--backend", "plugin-backend", "--spec", str(path)]
            ) == 0
            assert "PASS" in capsys.readouterr().out
        finally:
            BACKEND_REGISTRY._entries.pop("plugin-backend", None)

    def test_unknown_backend_name_is_a_clean_error(self, capsys):
        assert main(["verify-backend", "--backend", "no-such-backend"]) == 2
        assert "no-such-backend" in capsys.readouterr().err

    def test_unimportable_module_is_a_clean_error(self, capsys):
        assert main(["verify-backend", "--import", "no.such.module"]) == 2
        assert "no.such.module" in capsys.readouterr().err

    def test_spec_file_with_backend_flag_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(bitset_spec().to_json())
        assert main(["run", "--spec", str(path), "--backend", "bitset"]) == 2
        assert "--backend" in capsys.readouterr().err
