"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import ADVERSARIES, ALGORITHMS, build_parser, main
from repro.scenarios import ADVERSARY_REGISTRY, ALGORITHM_REGISTRY, ScenarioSpec


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "single-source"
        assert args.adversary == "churn"
        assert args.nodes == 20
        # -k defaults to None so that an explicit -k can be told apart from
        # the default (needed to reject contradictory n-gossip invocations).
        assert args.tokens is None

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "does-not-exist"])

    def test_registries_are_consistent_with_choices(self):
        assert "single-source" in ALGORITHMS
        assert "lower-bound" in ADVERSARIES
        for factory in list(ALGORITHMS.values()) + list(ADVERSARIES.values()):
            assert callable(factory)

    def test_legacy_dicts_mirror_the_registries(self):
        assert sorted(ALGORITHMS) == ALGORITHM_REGISTRY.names()
        assert sorted(ADVERSARIES) == ADVERSARY_REGISTRY.names()

    def test_usage_lists_exactly_the_subcommands(self):
        usage = " ".join(build_parser().format_usage().split())
        assert (
            "{run,sweep,analyze,report,verify-backend,list,bench,trace,"
            "warehouse,table1,bounds}"
        ) in usage


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("repro ")
        version = output.split()[1]
        assert version.count(".") == 2

    def test_version_prints_the_package_version(self, capsys):
        import repro

        # pyproject.toml reads the distribution's version from
        # repro.__version__, so the two cannot disagree.
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestRunCommand:
    def test_single_source_run(self, capsys):
        exit_code = main(
            ["run", "--algorithm", "single-source", "--adversary", "churn",
             "-n", "10", "-k", "8", "--seed", "3"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "total messages" in output
        assert "topological changes TC(E)" in output

    def test_flooding_against_lower_bound(self, capsys):
        exit_code = main(
            ["run", "--algorithm", "flooding", "--adversary", "lower-bound",
             "-n", "10", "-k", "6", "--random-placement", "--seed", "2"]
        )
        assert exit_code == 0
        assert "amortized messages / token" in capsys.readouterr().out

    def test_n_gossip_with_multi_source(self, capsys):
        exit_code = main(
            ["run", "--algorithm", "multi-source", "--adversary", "random",
             "-n", "8", "-k", "8", "-s", "0", "--seed", "4"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "sources (s)" in output

    def test_incomplete_run_returns_nonzero(self, capsys):
        exit_code = main(
            ["run", "--algorithm", "single-source", "--adversary", "static",
             "-n", "10", "-k", "8", "--max-rounds", "1", "--seed", "5"]
        )
        assert exit_code == 1


class TestAnalyticCommands:
    def test_table1(self, capsys):
        assert main(["table1", "-n", "256"]) == 0
        output = capsys.readouterr().out
        assert "k = n^2" in output

    def test_bounds(self, capsys):
        assert main(["bounds", "-n", "100", "-k", "200", "-s", "4"]) == 0
        output = capsys.readouterr().out
        assert "single-source competitive" in output
        assert "multi-source competitive" in output


class TestExitCodeContract:
    """Pin the run exit codes: 0 on completion, 1 on a round-limit stop.

    The JSON output path must preserve the same codes as the table path.
    """

    COMPLETING = ["run", "--algorithm", "single-source", "--adversary", "churn",
                  "-n", "10", "-k", "8", "--seed", "3"]
    ROUND_LIMITED = ["run", "--algorithm", "single-source", "--adversary", "static",
                     "-n", "10", "-k", "8", "--max-rounds", "1", "--seed", "5"]

    def test_completion_is_zero(self, capsys):
        assert main(self.COMPLETING) == 0

    def test_round_limit_stop_is_one(self, capsys):
        assert main(self.ROUND_LIMITED) == 1

    def test_completion_is_zero_with_json(self, capsys):
        assert main(self.COMPLETING + ["--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["completed"] is True

    def test_round_limit_stop_is_one_with_json(self, capsys):
        assert main(self.ROUND_LIMITED + ["--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["completed"] is False
        assert record["rounds"] == 1

    def test_configuration_error_is_two(self, capsys):
        assert main(["run", "--set", "adversary.not_a_param=1"]) == 2
        assert "not_a_param" in capsys.readouterr().err


class TestNGossipTokenConflict:
    def test_sources_zero_with_contradictory_k_is_rejected(self, capsys):
        exit_code = main(["run", "--sources", "0", "-k", "40", "-n", "20"])
        assert exit_code == 2
        assert "forces k = n" in capsys.readouterr().err

    def test_sources_zero_with_matching_k_is_accepted(self, capsys):
        args = ["run", "--algorithm", "multi-source", "-n", "8", "-k", "8", "-s", "0",
                "--seed", "4"]
        assert main(args) == 0

    def test_sources_zero_without_k_is_accepted(self, capsys):
        args = ["run", "--algorithm", "multi-source", "-n", "8", "-s", "0", "--seed", "4"]
        assert main(args) == 0


class TestListCommand:
    def test_list_enumerates_all_registries(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for section in ("algorithms:", "adversaries:", "problems:", "backends:"):
            assert section in output
        for name in ("single-source", "lower-bound", "n-gossip", "bitset"):
            assert name in output

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "algorithms", "adversaries", "problems", "backends",
            "bitset_fast_paths", "batch_programs",
        }
        assert payload["batch_programs"] == [
            "flooding",
            "naive-unicast",
            "one-shot-flooding",
        ]
        names = {entry["name"] for entry in payload["algorithms"]}
        assert "flooding" in names
        backend_names = {entry["name"] for entry in payload["backends"]}
        assert {"reference", "bitset"} <= backend_names
        oblivious = next(e for e in payload["algorithms"] if e["name"] == "oblivious")
        defaults = {p["name"]: p.get("default") for p in oblivious["parameters"]}
        assert defaults["force_two_phase"] is True

    def test_list_marks_bitset_fast_paths(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        fast_paths = set(payload["bitset_fast_paths"])
        assert {
            "flooding",
            "single-source",
            "spanning-tree",
            "multi-source",
            "oblivious",
        } <= fast_paths
        main(["list"])
        assert "[bitset fast path]" in capsys.readouterr().out


class TestBenchCommand:
    """Exit codes stay pinned: 0 pass, 1 gate/mismatch failure, 2 bad config."""

    @pytest.fixture
    def tiny_grid(self, monkeypatch):
        import repro.benchmark as benchmark

        def grid(quick):
            return [benchmark._flooding_spec(12)]

        monkeypatch.setattr(benchmark, "benchmark_grid", grid)

    def test_bench_runs_and_writes_trajectory(self, tiny_grid, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["backends"] == ["reference", "bitset"]
        assert all(entry["equal"] for entry in payload["entries"])
        assert "bench-flooding-n12-k12" in capsys.readouterr().out

    def test_unreachable_speedup_gate_fails_with_exit_1(self, tiny_grid, capsys):
        assert main(["bench", "--quick", "--min-speedup", "1000000"]) == 1
        assert "speedup gate" in capsys.readouterr().out

    def test_trivially_met_speedup_gate_passes(self, tiny_grid, capsys):
        assert main(["bench", "--quick", "--min-speedup", "0.0001"]) == 0
        assert "speedup gate" in capsys.readouterr().out

    def test_gate_without_a_flooding_entry_fails(self, monkeypatch, capsys):
        import repro.benchmark as benchmark

        monkeypatch.setattr(
            benchmark, "benchmark_grid", lambda quick: [benchmark._spanning_tree_spec(8, 6)]
        )
        assert main(["bench", "--quick", "--min-speedup", "1"]) == 1
        assert "no flooding entry" in capsys.readouterr().out

    def test_invalid_repeat_is_a_configuration_error(self, capsys):
        assert main(["bench", "--repeat", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_runs_grid_and_writes_jsonl(self, tmp_path, capsys):
        output = tmp_path / "records.jsonl"
        exit_code = main([
            "sweep", "--algorithm", "single-source", "--adversary", "churn",
            "-n", "8", "-k", "6", "--grid", "problem.num_nodes=8,10",
            "--repetitions", "2", "--seed", "9", "--output", str(output),
        ])
        assert exit_code == 0
        lines = output.read_text().strip().splitlines()
        assert len(lines) == 4  # 2 grid points x 2 repetitions
        records = [json.loads(line) for line in lines]
        assert {record["n"] for record in records} == {8, 10}
        assert all(record["completed"] for record in records)

    def test_sweep_json_output_matches_file(self, tmp_path, capsys):
        output = tmp_path / "records.jsonl"
        args = ["sweep", "-n", "8", "-k", "6", "--grid", "seed=1,2",
                "--output", str(output), "--json"]
        assert main(args) == 0
        stdout_lines = capsys.readouterr().out.strip().splitlines()
        assert stdout_lines == output.read_text().strip().splitlines()

    def test_sweep_with_set_overrides(self, capsys):
        exit_code = main([
            "sweep", "-n", "8", "-k", "6", "--grid", "seed=0,1",
            "--set", "adversary.changes_per_round=1",
        ])
        assert exit_code == 0

    def test_invalid_grid_is_rejected(self, capsys):
        assert main(["sweep", "--grid", "nonsense"]) == 2


class TestSpecFile:
    def test_run_from_spec_file(self, tmp_path, capsys):
        spec = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 8, "num_tokens": 6},
            algorithm="single-source",
            adversary="churn",
            repetitions=2,
            seed=3,
            name="from-file",
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path), "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 2
        assert all(record["scenario"] == "from-file" for record in records)


class TestReviewRegressions:
    def test_named_problem_picks_up_dimension_flags(self, capsys):
        args = ["run", "--problem", "multi-source", "--algorithm", "multi-source",
                "-n", "12", "-k", "8", "-s", "4", "--json"]
        assert main(args) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["n"], record["k"], record["s"]) == (12, 8, 4)

    def test_static_random_adversary_gets_num_nodes_from_the_problem(self, capsys):
        assert main(["run", "--adversary", "static-random", "-n", "10", "-k", "6",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["adversary_params"]["num_nodes"] == 10

    def test_missing_required_parameter_is_a_clean_error(self, capsys):
        # No -n mapping exists for sweep-less problems given only via --problem
        # with the dimension flags at defaults; a missing required parameter
        # must exit 2 with a message, not a traceback.
        assert main(["run", "--set", "adversary.num_nodes=5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_is_a_clean_error(self, capsys):
        assert main(["run", "--spec", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_rejects_conflicting_scenario_flags(self, tmp_path, capsys):
        spec = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 8, "num_tokens": 6},
            algorithm="single-source",
            adversary="churn",
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path), "--seed", "99"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert main(["run", "--spec", str(path)]) == 0


class TestThinAdapterExitCodes:
    """The api-backed adapters keep the 0 / 1 / 2 exit-code contract."""

    def test_sweep_completion_is_zero(self, capsys):
        assert main(["sweep", "-n", "8", "-k", "6", "--grid", "seed=0,1"]) == 0

    def test_sweep_round_limit_stop_is_one(self, capsys):
        assert main(["sweep", "--adversary", "static", "-n", "10", "-k", "8",
                     "--max-rounds", "1", "--grid", "seed=5,6"]) == 1

    def test_sweep_unknown_component_is_two_with_a_suggestion(self, capsys):
        # The typo passes argparse (it is a --grid value, not a choice) and
        # must surface the registry's did-you-mean error, not a traceback.
        assert main(["sweep", "-n", "8", "-k", "6",
                     "--grid", "algorithm=floodng"]) == 2
        message = capsys.readouterr().err
        assert "did you mean 'flooding'" in message

    def test_sweep_non_positive_workers_is_two(self, capsys):
        assert main(["sweep", "-n", "8", "-k", "6", "--workers", "0"]) == 2
        assert "workers must be a positive int, got 0" in capsys.readouterr().err

    def test_run_spec_with_unknown_backend_is_two(self, tmp_path, capsys):
        spec = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 8, "num_tokens": 6},
            algorithm="single-source",
            adversary="churn",
            backend="bitst",
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path)]) == 2
        assert "did you mean 'bitset'" in capsys.readouterr().err

    def test_analyze_missing_source_is_two(self, capsys):
        assert main(["analyze", "/no/such/records.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_store_roundtrip_is_zero(self, tmp_path, capsys):
        store = tmp_path / "warehouse"
        assert main(["sweep", "-n", "8", "-k", "6", "--grid", "seed=0,1",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        assert "# Results report" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [("analyze", "--bounds", "--format", "json"), ("report",)],
        ids=["analyze-bounds-json", "report"],
    )
    def test_store_killed_before_its_first_manifest_reads_like_a_flushed_one(
        self, tmp_path, capsys, argv
    ):
        from repro.results.store import RunStore
        from repro.scenarios import run_spec

        spec = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 8, "num_tokens": 6},
            algorithm="flooding",
            adversary="static-random",
            adversary_params={"num_nodes": 8},
            seed=3,
            repetitions=2,
        )
        # What a first `sweep --store` killed mid-stream leaves: complete
        # shards, and no manifest.json (the sweep saves it when it ends).
        RunStore(tmp_path / "killed").add(
            run_spec(spec), replace=True, save_manifest=False
        )
        assert not (tmp_path / "killed" / "manifest.json").exists()
        RunStore(tmp_path / "flushed").add(run_spec(spec))
        command, *flags = argv
        assert main([command, str(tmp_path / "killed"), *flags]) == 0
        killed = capsys.readouterr().out
        assert main([command, str(tmp_path / "flushed"), *flags]) == 0
        assert killed == capsys.readouterr().out

    def test_incremental_sweep_skips_cached_cells(self, tmp_path, capsys):
        store = tmp_path / "warehouse"
        args = ["sweep", "-n", "8", "-k", "6", "--grid", "seed=0,1",
                "--repetitions", "2", "--store", str(store)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 added, 0 already present (4 executed)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 added, 4 already present (0 executed)" in second
