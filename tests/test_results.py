"""Tests for the results warehouse: records, store, aggregation, comparison."""

import importlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.api import Experiment
from repro.cli import main
from repro.results import (
    SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
    RunStore,
    aggregate,
    bound_ratio_rows,
    compare_to_bounds,
    dump_records,
    fit_scaling_exponent,
    load_records,
    open_source,
    register_bound,
    render_report,
)
from repro.results.aggregate import DEFAULT_GROUP_BY, bootstrap_ci
from repro.results.compare import (
    VERDICT_ABOVE,
    VERDICT_WITHIN,
    BoundSpec,
    registered_bounds,
)
from repro.results.report import render_markdown_table, render_table
from repro.scenarios import ScenarioSpec, sweep
from repro.utils.validation import ConfigurationError

# The package re-exports the function ``aggregate`` under the module's name.
aggregate_module = importlib.import_module("repro.results.aggregate")


def small_specs(repetitions=2, nodes=(8, 10)):
    base = ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": 8, "num_tokens": 6},
        algorithm="single-source",
        adversary="churn",
        repetitions=repetitions,
        seed=3,
    )
    return sweep(base, {"problem.num_nodes": list(nodes)})


@pytest.fixture(scope="module")
def run_records():
    """Records from one small serial sweep (shared; runs are deterministic)."""
    return Experiment.from_specs(small_specs()).run().records()


def synthetic_record(algorithm, n, k, s, repetition, amortized, competitive=None):
    """A hand-built record with controlled metric values."""
    spec = ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": n, "num_tokens": k},
        algorithm=algorithm,
        adversary="churn",
        seed=0,
        repetitions=repetition + 1,
    )
    return RunRecord(
        scenario=spec.label,
        spec=spec.to_dict(),
        repetition=repetition,
        seed=repetition,
        n=n,
        k=k,
        s=s,
        completed=True,
        rounds=10,
        total_messages=int(amortized * k),
        amortized_messages=float(amortized),
        topological_changes=5,
        adversary_competitive=float(competitive if competitive is not None else amortized) * k,
        amortized_adversary_competitive=float(
            competitive if competitive is not None else amortized
        ),
        token_learnings=n * k,
    )


def reference_bootstrap_ci(values, *, confidence=0.95, resamples=200, rng):
    """The bootstrap as it was before exact integer sums: one
    ``statistics.mean`` (exact ``Fraction`` arithmetic) per resample.
    :func:`bootstrap_ci` must match it bit for bit, in type, and in the
    generator state it leaves behind."""
    if not values:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    if len(values) == 1:
        return (values[0], values[0])
    means = sorted(
        statistics.mean(rng.choices(values, k=len(values))) for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    low_index = int(tail * (resamples - 1))
    high_index = int((1.0 - tail) * (resamples - 1))
    return (means[low_index], means[high_index])


def assert_same_bootstrap(values, seed, **options):
    """``bootstrap_ci`` equals the reference in type and repr (so in every
    bit, NaN and signed zero included) and consumes the same draws."""
    ours, theirs = random.Random(seed), random.Random(seed)
    got = bootstrap_ci(values, rng=ours, **options)
    expected = reference_bootstrap_ci(values, rng=theirs, **options)
    assert [type(bound) for bound in got] == [type(bound) for bound in expected], values
    assert [repr(bound) for bound in got] == [repr(bound) for bound in expected], values
    assert ours.random() == theirs.random()
    return got


class TestRunRecord:
    def test_round_trip_preserves_schema_version(self, run_records):
        record = RunRecord.from_dict(run_records[0])
        assert record.schema_version == SCHEMA_VERSION
        clone = RunRecord.from_json_line(record.to_json_line())
        assert clone == record
        assert json.loads(record.to_json_line())["schema_version"] == SCHEMA_VERSION

    def test_runner_records_carry_the_schema_version(self, run_records):
        assert all(r["schema_version"] == SCHEMA_VERSION for r in run_records)

    def test_legacy_record_without_version_is_read_as_current(self, run_records):
        payload = dict(run_records[0])
        payload.pop("schema_version")
        assert RunRecord.from_dict(payload).schema_version == SCHEMA_VERSION

    def test_future_schema_version_is_rejected(self, run_records):
        payload = dict(run_records[0], schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="upgrade"):
            RunRecord.from_dict(payload)

    def test_identity_ignores_label_but_not_content(self, run_records):
        record = RunRecord.from_dict(run_records[0])
        renamed = RunRecord.from_dict(
            dict(run_records[0], spec=dict(run_records[0]["spec"], name="other-label"))
        )
        assert renamed.identity() == record.identity()
        reseeded = RunRecord.from_dict(
            dict(run_records[0], spec=dict(run_records[0]["spec"], seed=99))
        )
        assert reseeded.identity() != record.identity()

    def test_axis_values(self, run_records):
        record = RunRecord.from_dict(run_records[0])
        assert record.axis_value("algorithm") == "single-source"
        assert record.axis_value("problem.num_nodes") == record.n
        assert record.axis_value("n") == record.n
        with pytest.raises(RecordValidationError, match="unknown axis"):
            record.axis_value("not_an_axis")


class TestJsonl:
    def test_file_round_trip(self, tmp_path, run_records):
        path = tmp_path / "runs.jsonl"
        written = dump_records(run_records, path)
        loaded = load_records(path)
        assert written == len(run_records) == len(loaded)
        assert [r.to_dict() for r in loaded] == [
            RunRecord.from_dict(r).to_dict() for r in run_records
        ]

    def test_validation_error_names_file_and_line(self, tmp_path, run_records):
        path = tmp_path / "runs.jsonl"
        lines = [json.dumps(run_records[0]), "{not json", json.dumps(run_records[1])]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordValidationError) as error:
            load_records(path)
        assert f"{path}:2" in str(error.value)

    def test_tolerant_read_skips_bad_lines(self, tmp_path, run_records):
        path = tmp_path / "runs.jsonl"
        lines = [json.dumps(run_records[0]), "", "garbage", json.dumps(run_records[1])]
        path.write_text("\n".join(lines) + "\n")
        assert len(load_records(path, on_error="skip")) == 2

    def test_wrongly_typed_field_is_rejected_with_its_name(self, run_records):
        payload = dict(run_records[0], rounds="many")
        with pytest.raises(ValueError, match="rounds"):
            RunRecord.from_dict(payload)


class TestRunStore:
    def test_add_then_readd_is_a_no_op(self, tmp_path, run_records):
        store = RunStore(tmp_path / "store")
        assert store.add(run_records) == (len(run_records), 0)
        assert store.add(run_records) == (0, len(run_records))
        assert len(store) == len(run_records)

    def test_add_replace_supersedes_existing_identities(self, tmp_path, run_records):
        store = RunStore(tmp_path / "store")
        store.add(run_records)
        changed = dict(run_records[0], rounds=run_records[0]["rounds"] + 7)
        # Without replace the changed record is skipped...
        assert store.add([changed]) == (0, 1)
        # ...with replace it supersedes (last-wins), once — an identical
        # re-add is still idempotent.
        assert store.add([changed], replace=True) == (1, 0)
        assert store.add([changed], replace=True) == (0, 1)
        reopened = RunStore(tmp_path / "store")
        assert len(reopened) == len(run_records)
        stored = {r.identity(): r for r in reopened.records()}
        key = RunRecord.from_dict(changed).identity()
        assert stored[key].rounds == changed["rounds"]

    def test_reopened_store_sees_the_same_records(self, tmp_path, run_records):
        RunStore(tmp_path / "store").add(run_records)
        reopened = RunStore(tmp_path / "store")
        assert [r.to_dict() for r in reopened.records()] == sorted(
            (RunRecord.from_dict(r).to_dict() for r in run_records),
            key=lambda d: (
                ScenarioSpec.from_dict(d["spec"]).scenario_key(), d["repetition"],
            ),
        )

    def test_merge_of_split_worker_outputs_equals_direct_store(self, tmp_path, run_records):
        direct = RunStore(tmp_path / "direct")
        direct.add(run_records)
        half = len(run_records) // 2
        worker_a = RunStore(tmp_path / "worker-a")
        worker_a.add(run_records[:half])
        worker_b = RunStore(tmp_path / "worker-b")
        worker_b.add(run_records[half:])
        merged = RunStore(tmp_path / "merged")
        merged.merge(worker_a)
        merged.merge(worker_b)
        merged.merge(worker_a)  # idempotent: merging twice changes nothing
        assert [r.to_dict() for r in merged.records()] == [
            r.to_dict() for r in direct.records()
        ]

    def test_ingest_jsonl(self, tmp_path, run_records):
        path = tmp_path / "runs.jsonl"
        dump_records(run_records, path)
        store = RunStore(tmp_path / "store")
        assert store.ingest_jsonl(path) == (len(run_records), 0)
        assert store.ingest_jsonl(path) == (0, len(run_records))

    def test_query_filters(self, tmp_path, run_records):
        store = RunStore(tmp_path / "store")
        store.add(run_records)
        assert store.query(algorithm="single-source") == store.records()
        assert store.query(algorithm="flooding") == []
        only_eight = store.query(where={"problem.num_nodes": 8})
        assert only_eight and all(r.n == 8 for r in only_eight)

    def test_lost_manifest_is_recovered_without_duplicates(self, tmp_path, run_records):
        # A crash between the shard append and the manifest save loses the
        # index but not the data; reopening must recover both the visibility
        # of the records and exact dedup.
        store_dir = tmp_path / "store"
        RunStore(store_dir).add(run_records)
        (store_dir / "manifest.json").unlink()
        reopened = RunStore(store_dir)
        assert len(reopened.records()) == len(run_records)
        assert reopened.add(run_records) == (0, len(run_records))
        shard_lines = sum(
            len(path.read_text().splitlines())
            for path in (store_dir / "shards").glob("*.jsonl")
        )
        assert shard_lines == len(run_records)

    def test_open_source_reads_stores_and_files(self, tmp_path, run_records):
        store = RunStore(tmp_path / "store")
        store.add(run_records)
        path = tmp_path / "runs.jsonl"
        dump_records(run_records, path)
        assert len(open_source(tmp_path / "store")) == len(run_records)
        assert len(open_source(path)) == len(run_records)
        with pytest.raises(ConfigurationError):
            open_source(tmp_path / "missing.jsonl")
        with pytest.raises(ConfigurationError):
            open_source(tmp_path)  # a directory without a manifest


class TestAggregation:
    def test_rows_are_independent_of_record_order(self, run_records):
        forward = aggregate(run_records, group_by=("algorithm", "n"))
        backward = aggregate(list(reversed(run_records)), group_by=("algorithm", "n"))
        assert forward == backward

    def test_parallel_and_serial_runs_aggregate_identically(self):
        specs = small_specs()
        serial = Experiment.from_specs(specs).run(workers=1).records()
        parallel = Experiment.from_specs(specs).run(workers=2).records()
        group_by = ("algorithm", "adversary", "n", "k")
        assert aggregate(serial, group_by) == aggregate(parallel, group_by)

    def test_statistics_of_known_values(self):
        records = [
            synthetic_record("flooding", 8, 4, 1, rep, amortized=value)
            for rep, value in enumerate([10.0, 20.0, 30.0])
        ]
        (row,) = aggregate(records, group_by=("algorithm",), metrics=("amortized_messages",))
        assert row["runs"] == 3
        assert row["amortized_messages_mean"] == pytest.approx(20.0)
        assert row["amortized_messages_median"] == pytest.approx(20.0)
        assert row["amortized_messages_min"] == 10.0
        assert row["amortized_messages_max"] == 30.0
        assert (
            row["amortized_messages_ci_low"]
            <= row["amortized_messages_mean"]
            <= row["amortized_messages_ci_high"]
        )

    def test_grouping_by_component_parameter(self, run_records):
        rows = aggregate(run_records, group_by=("problem.num_nodes",))
        assert [row["problem.num_nodes"] for row in rows] == [8, 10]


def _integral_floats(rng, size):
    return [float(rng.randint(-1000, 10**6)) for _ in range(size)]


def _amortized_ratios(rng, size):
    return [rng.randint(0, 10**6) / rng.randint(1, 5000) for _ in range(size)]


def _extreme_magnitudes(rng, size):
    return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300) for _ in range(size)]


def _subnormals(rng, size):
    # Signed multiples of the smallest subnormal, from ±0.0 to above
    # 2**-1022; means of the smallest ones underflow to ±0.0.
    return [
        rng.choice((-1.0, 1.0)) * (rng.randint(0, 2 ** rng.randint(0, 54)) * 5e-324)
        for _ in range(size)
    ]


def _ints(rng, size):
    return [rng.randint(-50, 10**5) for _ in range(size)]


class TestExactBootstrap:
    """Exact integer resample means against the ``statistics.mean`` loop."""

    @pytest.mark.parametrize(
        "draw",
        [_integral_floats, _amortized_ratios, _extreme_magnitudes, _subnormals, _ints],
    )
    def test_bit_identical_to_statistics_mean(self, draw):
        rng = random.Random(f"exact-bootstrap-{draw.__name__}")
        for _ in range(500):
            values = sorted(draw(rng, rng.randint(2, 12)))
            confidence = rng.choice((0.5, 0.9, 0.95, 0.99))
            bounds = assert_same_bootstrap(
                values, rng.randrange(2**32), confidence=confidence, resamples=50
            )
            if draw is _ints:
                # An all-int sample keeps statistics.mean's int when integral.
                for bound in bounds:
                    assert type(bound) is (int if bound == int(bound) else float)

    def test_default_resamples_on_amortized_ratios(self):
        rng = random.Random("exact-bootstrap-default")
        for _ in range(40):
            assert_same_bootstrap(sorted(_amortized_ratios(rng, 7)), rng.randrange(2**32))

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, float("nan"), 3.0],
            [float("inf"), 2.5, 4.0],
            [float("-inf"), float("inf"), 1.0],
            [1, 2.5, 4],
            [True, False, True],
            [Decimal("0.1"), Decimal("0.25"), Decimal("7")],
            [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2)],
        ],
        ids=["nan", "inf", "both-infinities", "int-float-mix", "bool", "decimal", "fraction"],
    )
    def test_other_values_fall_back_to_statistics_mean(self, values):
        for seed in range(20):
            assert_same_bootstrap(values, seed, resamples=30)

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_non_positive_resamples_are_rejected(self, resamples, run_records):
        for values in ([1.0, 2.0], [1.0]):
            with pytest.raises(ConfigurationError, match="resamples"):
                bootstrap_ci(values, resamples=resamples, rng=random.Random(1))
        with pytest.raises(ConfigurationError, match="resamples"):
            aggregate(run_records, resamples=resamples)

    @pytest.mark.parametrize("group_by", [("algorithm",), ("n",), DEFAULT_GROUP_BY])
    def test_aggregate_rows_equal_reference_rows(self, run_records, monkeypatch, group_by):
        rows = json.dumps(aggregate(run_records, group_by))
        monkeypatch.setattr(aggregate_module, "bootstrap_ci", reference_bootstrap_ci)
        assert rows == json.dumps(aggregate(run_records, group_by))


class TestComparison:
    def power_law_records(self, algorithm, exponent, k=8):
        return [
            synthetic_record(
                algorithm, n, k, 1, rep, amortized=float(n**exponent), competitive=float(n**exponent)
            )
            for n in (8, 16, 32, 64)
            for rep in (0, 1)
        ]

    def test_slope_fit_recovers_the_exponent(self):
        records = self.power_law_records("flooding", exponent=2)
        points = [{"n": r.n, "measured": r.amortized_messages} for r in records]
        fitted = fit_scaling_exponent(points)
        assert fitted == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_growth_is_within_the_flooding_bound(self):
        rows = compare_to_bounds(self.power_law_records("flooding", exponent=2))
        (row,) = rows
        assert row["algorithm"] == "flooding"
        assert row["paper_bound"] == "O(n^2)"
        assert row["measured_exponent"] == pytest.approx(2.0, abs=1e-6)
        assert row["verdict"] == VERDICT_WITHIN

    def test_cubic_growth_exceeds_the_flooding_bound(self):
        rows = compare_to_bounds(self.power_law_records("flooding", exponent=3))
        assert rows[0]["verdict"] == VERDICT_ABOVE

    def test_ratio_rows_divide_measured_by_bound(self):
        records = [synthetic_record("flooding", 10, 4, 1, 0, amortized=50.0)]
        (row,) = bound_ratio_rows(records)
        assert row["bound"] == pytest.approx(100.0)
        assert row["ratio"] == pytest.approx(0.5)

    def test_algorithms_without_bounds_are_omitted(self):
        spec_fields = synthetic_record("flooding", 8, 4, 1, 0, amortized=1.0).to_dict()
        spec_fields["spec"]["algorithm"] = "random-walk-not-registered"
        assert bound_ratio_rows([spec_fields]) == []

    def test_every_builtin_algorithm_has_a_bound(self):
        bounds = registered_bounds()
        for name in ("flooding", "one-shot-flooding", "naive-unicast",
                     "spanning-tree", "single-source", "multi-source", "oblivious"):
            assert name in bounds
            value = bounds[name].evaluate(16, 32, 2)
            assert math.isfinite(value) and value > 0

    def test_register_bound_extension_hook(self):
        name = "custom-bound-test-algorithm"
        try:
            register_bound(name, BoundSpec(expression="n", evaluate=lambda n, k, s: float(n)))
            assert name in registered_bounds()
            with pytest.raises(ConfigurationError, match="replace=True"):
                register_bound(name, BoundSpec(expression="n", evaluate=lambda n, k, s: 1.0))
        finally:
            registered_bounds()  # defensive copy; remove via private map
            from repro.results import compare

            compare._ALGORITHM_BOUNDS.pop(name, None)


class TestRendering:
    def test_markdown_table_shape(self):
        table = render_markdown_table(["a", "b"], [[1, 2.5], ["x", None]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert "| x | — |" in lines

    def test_formats_dispatch(self):
        headers, rows = ["a"], [[1]]
        assert render_table(headers, rows, "csv") == "a\n1"
        assert json.loads(render_table(headers, rows, "json")) == [{"a": 1}]
        assert "a" in render_table(headers, rows, "text")
        with pytest.raises(ConfigurationError):
            render_table(headers, rows, "pdf")

    def test_report_contains_all_sections(self, run_records):
        document = render_report(run_records)
        assert "# Results report" in document
        assert "## Aggregates" in document
        assert "## Paper bounds vs measured" in document
        assert "## Table 1 (paper vs measured)" in document
        assert "within bound" in document or "above bound" in document


class TestCliAnalyze:
    def test_analyze_jsonl_file_with_bounds(self, tmp_path, capsys, run_records):
        path = tmp_path / "runs.jsonl"
        dump_records(run_records, path)
        assert main(["analyze", str(path), "--bounds"]) == 0
        output = capsys.readouterr().out
        assert "| algorithm |" in output
        assert "verdict" in output

    def test_analyze_reads_stdin(self, capsys, monkeypatch, run_records):
        import io

        lines = "\n".join(json.dumps(record) for record in run_records) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["analyze", "--group-by", "algorithm,n", "--format", "csv"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("algorithm,n,")

    def test_analyze_store_directory(self, tmp_path, capsys, run_records):
        store_dir = tmp_path / "store"
        RunStore(store_dir).add(run_records)
        assert main(["analyze", str(store_dir), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["runs"] >= 1

    def test_analyze_empty_stdin_is_a_clean_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["analyze"]) == 2
        assert "no records" in capsys.readouterr().err

    def test_analyze_bad_jsonl_reports_the_line(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n")
        assert main(["analyze", str(path)]) == 2
        assert ":1" in capsys.readouterr().err

    def test_report_command_writes_a_file(self, tmp_path, capsys, run_records):
        path = tmp_path / "runs.jsonl"
        dump_records(run_records, path)
        out = tmp_path / "report.md"
        assert main(["report", str(path), "--output", str(out)]) == 0
        assert out.read_text().startswith("# Results report")


class TestCliSweepStore:
    def test_sweep_store_roundtrip_is_idempotent(self, tmp_path, capsys):
        store_dir = tmp_path / "warehouse"
        args = ["sweep", "-n", "8", "-k", "6", "--grid", '{"num_nodes": [8, 10]}',
                "--repetitions", "2", "--seed", "3", "--store", str(store_dir)]
        assert main(args) == 0
        first = len(RunStore(store_dir))
        assert first == 4
        assert main(args) == 0
        assert len(RunStore(store_dir)) == first
        # The re-run is incremental: the plan found every cell in the store
        # and executed nothing (see repro.api.Experiment.plan).
        assert "0 added, 4 already present (0 executed)" in capsys.readouterr().out

    def test_sweeping_num_nodes_follows_into_schedule_adversaries(self, capsys):
        # The adversary's required num_nodes is injected from -n before the
        # grid expands; sweeping the node count must update it per grid point.
        assert main(["sweep", "--adversary", "star-oscillator", "-n", "8", "-k", "6",
                     "--grid", '{"num_nodes": [8, 10]}', "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert {r["n"] for r in records} == {8, 10}
        assert all(r["spec"]["adversary_params"]["num_nodes"] == r["n"] for r in records)

    def test_explicit_adversary_num_nodes_is_not_resynced(self, capsys):
        # An explicit --set adversary.num_nodes is the user's choice; the
        # engine then reports the mismatch instead of silently overriding.
        exit_code = main(["sweep", "--adversary", "star-oscillator", "-n", "8", "-k", "6",
                          "--set", "adversary.num_nodes=8",
                          "--grid", '{"num_nodes": [10]}', "--json"])
        assert exit_code == 2

    def test_json_grid_bare_keys_map_to_problem_params(self, capsys):
        assert main(["sweep", "-n", "8", "-k", "6",
                     "--grid", '{"num_nodes": [8, 10], "seed": [1]}', "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert {record["n"] for record in records} == {8, 10}
        assert all(record["spec"]["seed"] == 1 for record in records)


def start_sweep(store, *args, stdout=subprocess.DEVNULL):
    """Start ``repro sweep ARGS --store STORE`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *args, "--store", str(store)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestSweepStoreProcesses:
    """``repro sweep --store`` runs in separate processes on one store."""

    def test_killed_sweep_rerun_executes_only_unfinished_cells(self, tmp_path, capsys):
        store = tmp_path / "store"
        # Six one-cell scenarios of about a quarter second each, so the kill
        # lands mid-run.
        args = ["--algorithm", "single-source", "--adversary", "churn",
                "-n", "160", "-k", "160", "--grid", "seed=1,2,3,4,5,6"]
        process = start_sweep(store, *args, "--json", stdout=subprocess.PIPE)
        try:
            # A record reaches stdout only after the store has appended it.
            first = process.stdout.readline()
        finally:
            process.kill()
            _, errors = process.communicate(timeout=60)
        assert first.startswith("{"), errors

        persisted = len(RunStore(store))
        assert 1 <= persisted < 6
        assert main(["sweep", *args, "--store", str(store)]) == 0
        executed = 6 - persisted
        assert (
            f"{executed} added, {persisted} already present ({executed} executed)"
            in capsys.readouterr().out
        )
        records = RunStore(store).records()
        assert len(records) == len({record.identity() for record in records}) == 6

    def test_two_concurrent_sweeps_share_one_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["--algorithm", "single-source", "--adversary", "churn",
                "-n", "64", "-k", "64", "--repetitions", "3", "--seed", "2"]
        processes = [
            start_sweep(store, *args, "--grid", grid)
            for grid in ("problem.num_nodes=64,80", "problem.num_nodes=72,88")
        ]
        for process in processes:
            _, errors = process.communicate(timeout=120)
            assert process.returncode == 0, errors

        records = RunStore(store).records()
        assert len(records) == 12
        assert len({record.identity() for record in records}) == 12
        union = "problem.num_nodes=64,72,80,88"
        assert main(["sweep", *args, "--grid", union, "--store", str(store)]) == 0
        assert "0 added, 12 already present (0 executed)" in capsys.readouterr().out
