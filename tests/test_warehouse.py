"""repro.warehouse: the sqlite index over the JSONL run store.

The load-bearing invariant throughout: **aggregation output with the index
is byte-identical to the shard-scan path** — after a fresh build, after
appends and after ``add(replace=True)`` the index must hold exactly the
records a shard scan reads, so the one aggregation renders the same
tables.  The JSONL shards stay the source of truth: corrupting the sqlite
file must never lose data, only trigger a rebuild.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3

import pytest

from repro.api import Experiment
from repro.cli import main
from repro.results.aggregate import aggregate, aggregate_columns
from repro.results.records import RunRecord
from repro.results.report import rows_to_table
from repro.results.store import RunStore
from repro.scenarios import ScenarioSpec, run_spec
from repro.utils.validation import ConfigurationError
from repro.warehouse import (
    INDEX_FILENAME,
    WarehouseIndex,
    open_index,
    rebuild_index,
)


def sweep_specs(num_nodes=(6, 8), repetitions=3, **overrides):
    specs = []
    for n in num_nodes:
        fields = dict(
            problem="single-source",
            problem_params={"num_nodes": n, "num_tokens": 4},
            algorithm="flooding",
            algorithm_params={"rounds_per_token": 2},
            adversary="static-random",
            adversary_params={"num_nodes": n},
            seed=11,
            repetitions=repetitions,
            name="warehouse-test",
        )
        fields.update(overrides)
        specs.append(ScenarioSpec(**fields))
    return specs


def populated_store(tmp_path, specs=None, name="store"):
    store = RunStore(tmp_path / name)
    for spec in specs or sweep_specs():
        store.add(run_spec(spec))
    store.flush()
    return store


class TestSync:
    def test_fresh_sync_indexes_every_record(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        stats = index.sync()
        assert stats.shards_read == 2
        assert stats.rows_added == len(store.records())
        assert index.count() == len(store.records())

    def test_noop_sync_reads_zero_shards(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        stats = index.sync()
        assert stats.shards_read == 0
        assert stats.shards_skipped == 2
        assert stats.rows_added == 0

    def test_sync_folds_only_changed_shards(self, tmp_path):
        spec_a, spec_b = sweep_specs()
        store = populated_store(tmp_path, [spec_a, spec_b])
        index = WarehouseIndex(store.path)
        index.sync()
        [grown] = sweep_specs(num_nodes=(8,), repetitions=5)
        store.add(run_spec(grown), replace=True)
        store.flush()
        stats = index.sync()
        assert stats.shards_read == 1
        assert stats.shards_skipped == 1
        assert stats.rows_added == 2  # repetitions 3 and 4 are new
        assert index.count() == len(store.records())

    def test_sync_counts_appends_as_added_and_supersedes_as_updated(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        # A pure append: new repetition, no existing row superseded.
        record = store.records()[0].to_dict()
        record["repetition"] = 50
        store.add([record], replace=True)
        store.flush()
        stats = index.sync()
        assert (stats.rows_added, stats.rows_updated) == (1, 0)
        # A supersede: same repetition, different content.
        changed = dict(record, rounds=record["rounds"] + 7)
        store.add([changed], replace=True)
        store.flush()
        stats = index.sync()
        assert (stats.rows_added, stats.rows_updated) == (0, 1)

    def test_sync_on_missing_store_refuses(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WarehouseIndex(tmp_path / "nowhere")


class TestRebuildAndCorruption:
    def test_rebuild_recovers_from_corruption(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        index.close()
        (store.path / INDEX_FILENAME).write_bytes(b"this is not a database")
        with pytest.raises(ConfigurationError, match="warehouse rebuild"):
            WarehouseIndex(store.path)
        rebuilt, stats = rebuild_index(store.path)
        assert rebuilt.count() == len(store.records())
        assert stats.shards_read == 2

    def test_open_index_falls_back_on_corruption(self, tmp_path):
        store = populated_store(tmp_path)
        WarehouseIndex(store.path).sync()
        (store.path / INDEX_FILENAME).write_bytes(b"garbage")
        assert open_index(store.path) is None

    def test_open_index_without_index_file(self, tmp_path):
        store = populated_store(tmp_path)
        assert open_index(store.path) is None

    def test_rebuild_matches_incremental_state(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        incremental_rows = index.query().aggregate()
        rebuilt, _ = rebuild_index(store.path)
        assert rebuilt.query().aggregate() == incremental_rows

    def test_old_schema_version_falls_back_until_rebuilt(self, tmp_path):
        store = populated_store(tmp_path)
        with WarehouseIndex(store.path) as index:
            index.sync()
            with index.connection:
                index.connection.execute(
                    "UPDATE meta SET value = '1' WHERE key = 'index_schema_version'"
                )
        with pytest.raises(ConfigurationError, match="repro warehouse rebuild"):
            WarehouseIndex(store.path)
        assert open_index(store.path) is None
        rebuilt, stats = rebuild_index(store.path)
        assert stats.shards_read == 2
        assert rebuilt.count() == len(store.records())
        assert open_index(store.path) is not None


class TestQueryParity:
    """Every warehouse read must agree with the store's shard-scan read."""

    def test_records_and_keys(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        query = index.query()
        assert query.scenario_keys() == store.scenario_keys()
        assert [r.to_json_line() for r in query.records()] == [
            r.to_json_line() for r in store.query()
        ]
        for key in store.scenario_keys():
            assert [r.to_json_line() for r in query.records_for_key(key)] == [
                r.to_json_line() for r in store.records_for_key(key)
            ]
            theirs = store.repetitions_present(key)
            ours = query.repetitions_present(key)
            assert {k: v.to_json_line() for k, v in ours.items()} == {
                k: v.to_json_line() for k, v in theirs.items()
            }

    def test_filters(self, tmp_path):
        mixed = sweep_specs() + sweep_specs(
            num_nodes=(6,), algorithm="naive-unicast", algorithm_params={}
        )
        store = populated_store(tmp_path, mixed)
        index = WarehouseIndex(store.path)
        index.sync()
        query = index.query()
        for filters in (
            {"algorithm": "flooding"},
            {"algorithm": "naive-unicast"},
            {"adversary": "static-random"},
            {"algorithm": "flooding", "problem": "single-source"},
        ):
            assert [r.to_json_line() for r in query.records(**filters)] == [
                r.to_json_line() for r in store.query(**filters)
            ]
            assert query.count(**filters) == len(store.query(**filters))
        where = {"problem.num_nodes": 6}
        assert [r.to_json_line() for r in query.records(where=where)] == [
            r.to_json_line() for r in store.query(where=where)
        ]

    def test_percentile(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        query = index.query()
        values = sorted(r.metric_value("rounds") for r in store.query())
        assert query.percentile("rounds", 0) == values[0]
        assert query.percentile("rounds", 100) == values[-1]
        mid = query.percentile("rounds", 50)
        assert values[0] <= mid <= values[-1]
        with pytest.raises(ConfigurationError):
            query.percentile("rounds", 101)
        with pytest.raises(ConfigurationError):
            query.percentile("no-such-metric", 50)


class TestByteIdenticalAggregation:
    """The PR-2 invariant: index and shard scan render identical tables."""

    @pytest.mark.parametrize("fmt", ["md", "csv", "json", "text"])
    def test_fresh_index_matches_shard_scan(self, tmp_path, fmt):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        plain = aggregate(store.query())
        cached = index.query().aggregate()
        assert cached == plain
        columns = aggregate_columns()
        assert rows_to_table(cached, columns, fmt) == rows_to_table(
            plain, columns, fmt
        )

    def test_incremental_fold_matches_after_appends(self, tmp_path):
        spec_a, spec_b = sweep_specs()
        store = populated_store(tmp_path, [spec_a])
        index = WarehouseIndex(store.path)
        index.sync()
        index.query().aggregate()
        store.add(run_spec(spec_b))
        store.flush()
        index.sync()
        assert index.query().aggregate() == aggregate(store.query())

    def test_cache_invalidates_after_replace(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        index.query().aggregate()
        record = store.records()[0].to_dict()
        record["rounds"] += 13
        store.add([record], replace=True)
        store.flush()
        index.sync()
        assert index.query().aggregate() == aggregate(store.query())

    def test_custom_axes_and_metrics(self, tmp_path):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        group_by = ["algorithm", "problem.num_nodes"]
        metrics = ["rounds", "token_learnings"]
        assert index.query().aggregate(group_by, metrics) == aggregate(
            store.query(), group_by, metrics
        )

    def test_metric_subset_after_superset_does_not_go_stale(self, tmp_path):
        spec_a, spec_b = sweep_specs()
        store = populated_store(tmp_path, [spec_a])
        index = WarehouseIndex(store.path)
        index.sync()
        query = index.query()
        query.aggregate()
        query.aggregate(metrics=["rounds"])
        store.add(run_spec(spec_b))
        store.flush()
        index.sync()
        query.aggregate(metrics=["rounds"])
        assert query.aggregate() == aggregate(store.query())

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_non_positive_resamples_are_rejected(self, tmp_path, resamples):
        store = populated_store(tmp_path)
        index = WarehouseIndex(store.path)
        index.sync()
        with pytest.raises(ConfigurationError, match="resamples"):
            index.query().aggregate(resamples=resamples)


class TestObservability:
    def test_sync_records_counters_and_timings(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        store = populated_store(tmp_path)
        registry = MetricsRegistry()
        index = WarehouseIndex(store.path, metrics=registry)
        index.sync()
        index.sync()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["warehouse.sync.calls"] == 2
        assert snapshot["counters"]["warehouse.sync.shards_read"] == 2
        assert snapshot["counters"]["warehouse.sync.shards_skipped"] == 2
        assert snapshot["counters"]["warehouse.sync.rows_added"] == len(
            store.records()
        )
        assert snapshot["histograms"]["warehouse.sync.seconds"]["count"] == 2


class TestStoreListener:
    def test_attached_index_stays_warm(self, tmp_path):
        spec_a, spec_b = sweep_specs()
        store = populated_store(tmp_path, [spec_a])
        index = WarehouseIndex(store.path)
        index.sync()
        index.attach(store)
        store.add(run_spec(spec_b))
        store.flush()
        # The listener already folded the append: nothing left to re-read.
        stats = index.sync()
        assert stats.shards_read == 0
        assert index.count() == len(store.records())
        assert index.query().aggregate() == aggregate(store.query())

    def test_stale_index_reconciles_on_next_sync(self, tmp_path):
        spec_a, spec_b = sweep_specs()
        store = populated_store(tmp_path, [spec_a])
        index = WarehouseIndex(store.path)
        # Attach WITHOUT syncing first: the index misses spec_a's shard
        # content, so the append fast path must refuse the watermark and
        # leave the shard marked for re-reading.
        index.attach(store)
        store.add(run_spec(spec_b))
        store.flush()
        index.sync()
        assert index.count() == len(store.records())
        assert index.query().aggregate() == aggregate(store.query())

    def test_detach_stops_mirroring(self, tmp_path):
        spec_a, spec_b = sweep_specs()
        store = populated_store(tmp_path, [spec_a])
        index = WarehouseIndex(store.path)
        index.sync()
        index.attach(store)
        index.detach()
        store.add(run_spec(spec_b))
        store.flush()
        assert index.count() == 3
        index.sync()
        assert index.count() == len(store.records())


def _append_records_worker(store_path, lines, start):
    store = RunStore(store_path)
    for offset, line in enumerate(lines):
        record = json.loads(line)
        record["repetition"] = start + offset
        # One add per record: maximal manifest churn and interleaving.
        store.add([record], replace=True)


class TestStoreMultiWriter:
    def test_two_processes_append_to_one_shard_without_corruption(self, tmp_path):
        store_path = str(tmp_path / "store")
        [spec] = sweep_specs(num_nodes=(6,), repetitions=1)
        template = json.dumps(run_spec(spec)[0])
        per_writer = 20
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_append_records_worker,
                args=(store_path, [template] * per_writer, start),
            )
            for start in (0, per_writer)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        # Reopen: every line parses, every identity is present exactly once.
        records = RunStore(store_path).records()
        assert sorted(record.repetition for record in records) == list(
            range(2 * per_writer)
        )

    def test_concurrent_appends_with_live_index_sync_converge(self, tmp_path):
        """Two processes append while a third syncs the warehouse index:
        whatever the interleaving, a final sync must land on exactly the
        rows a cold rebuild derives from the shards."""
        store_path = str(tmp_path / "store")
        RunStore(store_path)  # writers and the syncer race on a live store
        index = WarehouseIndex(store_path)
        [spec] = sweep_specs(num_nodes=(6,), repetitions=1)
        template = json.dumps(run_spec(spec)[0])
        per_writer = 20
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_append_records_worker,
                args=(store_path, [template] * per_writer, start),
            )
            for start in (0, per_writer)
        ]
        for writer in writers:
            writer.start()
        # Sync concurrently with the appends: every intermediate sync must
        # succeed (shard stat + read happen under the store's writer lock),
        # even though the shard keeps growing between calls.
        while any(writer.is_alive() for writer in writers):
            index.sync()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        final = index.sync()
        assert index.count() == 2 * per_writer
        # A no-op sync after convergence re-reads nothing.
        assert index.sync().shards_read == 0
        rebuilt, _ = rebuild_index(store_path)
        assert rebuilt.count() == index.count() == len(
            RunStore(store_path).records()
        )


class TestPlanFastPath:
    def test_plan_with_index_matches_shard_scan_plan(self, tmp_path):
        specs = sweep_specs()
        store = populated_store(tmp_path, specs)
        WarehouseIndex(store.path).sync()
        indexed = Experiment.from_specs(specs).store(store.path).plan()
        other = populated_store(tmp_path, specs, name="noindex")
        plain = Experiment.from_specs(specs).store(other.path).plan()
        assert len(indexed.pending) == 0
        assert [c.cached_record for c in indexed.cells] == [
            c.cached_record for c in plain.cells
        ]

    def test_plan_keeps_index_warm_through_run(self, tmp_path):
        specs = sweep_specs(num_nodes=(6,))
        store = RunStore(tmp_path / "store")
        WarehouseIndex(store.path).sync()
        runset = Experiment.from_specs(specs).store(store.path).run()
        assert len(runset.records()) == 3
        index = open_index(store.path)
        # Records executed by the run were mirrored by the attached index.
        stats = index.sync()
        assert stats.shards_read == 0
        assert index.count() == 3

    def test_parallel_run_keeps_index_warm(self, tmp_path):
        specs = sweep_specs()
        store = RunStore(tmp_path / "store")
        WarehouseIndex(store.path).sync()
        runset = Experiment.from_specs(specs).store(store.path).run(workers=2)
        assert len(runset.records()) == 6
        index = open_index(store.path)
        # The parent process stores what the workers return, so the
        # attached index mirrors every record and agrees with a shard scan.
        assert index.sync().shards_read == 0
        assert index.count() == 6
        assert index.query().aggregate() == aggregate(RunStore(store.path).query())

    def test_failed_index_sync_falls_back_to_shard_scans(self, tmp_path, monkeypatch):
        specs = sweep_specs()
        store = populated_store(tmp_path, specs)
        WarehouseIndex(store.path).sync()

        def failing_sync(self):
            raise ConfigurationError("warehouse index failed during sync")

        monkeypatch.setattr(WarehouseIndex, "sync", failing_sync)
        fallback = Experiment.from_specs(specs).store(store.path).plan()
        other = populated_store(tmp_path, specs, name="noindex")
        plain = Experiment.from_specs(specs).store(other.path).plan()
        assert len(fallback.pending) == 0
        assert [c.cached_record for c in fallback.cells] == [
            c.cached_record for c in plain.cells
        ]
        grown = Experiment.from_specs(sweep_specs(num_nodes=(6, 8, 10)))
        assert grown.store(store.path).run().executed_count == 3

        monkeypatch.undo()
        # The index was not attached to the run, so its one new shard is
        # folded in by the next sync.
        index = open_index(store.path)
        assert index.sync().shards_read == 1
        assert index.count() == 9


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sync_query_byte_identical_to_analyze(self, tmp_path, capsys):
        store = populated_store(tmp_path)
        path = str(store.path)
        code, out, _ = self.run(capsys, "warehouse", "sync", path)
        assert code == 0
        assert "2 shard(s) read" in out
        code, indexed_out, err = self.run(capsys, "warehouse", "query", path)
        assert code == 0
        assert "skipped via watermarks" in err  # diagnostics stay off stdout
        other = populated_store(tmp_path, name="noindex")
        code, plain_out, _ = self.run(capsys, "analyze", str(other.path))
        assert code == 0
        assert indexed_out == plain_out

    def test_analyze_routes_through_index(self, tmp_path, capsys):
        store = populated_store(tmp_path)
        path = str(store.path)
        code, plain_out, err = self.run(capsys, "analyze", path)
        assert code == 0
        assert "warehouse" not in err  # no index yet: plain shard scan
        self.run(capsys, "warehouse", "sync", path)
        code, routed_out, err = self.run(capsys, "analyze", path)
        assert code == 0
        assert "skipped via watermarks" in err
        assert routed_out == plain_out

    def test_report_routes_through_index(self, tmp_path, capsys):
        store = populated_store(tmp_path)
        path = str(store.path)
        code, plain_out, _ = self.run(capsys, "report", path)
        self.run(capsys, "warehouse", "sync", path)
        code, routed_out, err = self.run(capsys, "report", path)
        assert code == 0
        assert "skipped via watermarks" in err
        assert routed_out == plain_out

    @pytest.mark.parametrize(
        "argv",
        [("analyze", "--bounds", "--format", "json"), ("report",)],
        ids=["analyze-bounds-json", "report"],
    )
    def test_indexed_store_prints_what_an_index_less_copy_prints(
        self, tmp_path, capsys, argv
    ):
        command, *flags = argv
        store = populated_store(tmp_path)
        self.run(capsys, "warehouse", "sync", str(store.path))
        other = populated_store(tmp_path, name="noindex")
        code, indexed_out, err = self.run(capsys, command, str(store.path), *flags)
        assert code == 0
        assert "skipped via watermarks" in err
        code, plain_out, err = self.run(capsys, command, str(other.path), *flags)
        assert code == 0
        assert "warehouse" not in err
        assert indexed_out == plain_out

    def test_filtered_query_prints_what_analyze_prints_for_those_records(
        self, tmp_path, capsys
    ):
        mixed = sweep_specs() + sweep_specs(
            num_nodes=(6,), algorithm="naive-unicast", algorithm_params={}
        )
        store = populated_store(tmp_path, mixed)
        flooding = populated_store(tmp_path, sweep_specs(), name="flooding")
        code, queried, _ = self.run(
            capsys, "warehouse", "query", str(store.path), "--algorithm", "flooding"
        )
        assert code == 0
        code, analyzed, _ = self.run(capsys, "analyze", str(flooding.path))
        assert code == 0
        assert queried == analyzed
        code, _, err = self.run(
            capsys, "warehouse", "query", str(store.path), "--algorithm", "nothing"
        )
        assert code == 2
        assert "holds no matching records" in err

    def test_query_count_and_percentile(self, tmp_path, capsys):
        store = populated_store(tmp_path)
        path = str(store.path)
        self.run(capsys, "warehouse", "sync", path)
        code, out, _ = self.run(capsys, "warehouse", "query", path, "--count")
        assert code == 0
        assert out.strip() == str(len(store.records()))
        code, out, _ = self.run(
            capsys, "warehouse", "query", path, "--percentile", "rounds:50"
        )
        assert code == 0
        float(out.strip())  # a bare number
        code, _, err = self.run(
            capsys, "warehouse", "query", path, "--percentile", "rounds"
        )
        assert code == 2
        assert "METRIC:Q" in err

    def test_rebuild_recovers_corrupt_index(self, tmp_path, capsys):
        store = populated_store(tmp_path)
        path = str(store.path)
        self.run(capsys, "warehouse", "sync", path)
        (store.path / INDEX_FILENAME).write_bytes(b"garbage")
        code, _, err = self.run(capsys, "warehouse", "query", path)
        assert code == 2
        assert "rebuild" in err
        code, out, _ = self.run(capsys, "warehouse", "rebuild", path)
        assert code == 0
        assert "rebuilt" in out
        code, out, _ = self.run(capsys, "warehouse", "query", path, "--count")
        assert code == 0
        assert out.strip() == str(len(store.records()))

    def test_consolidated_report(self, tmp_path, capsys):
        mixed = sweep_specs(num_nodes=(6,)) + sweep_specs(
            num_nodes=(6,), algorithm="naive-unicast", algorithm_params={}
        )
        store = populated_store(tmp_path, mixed)
        path = str(store.path)
        self.run(capsys, "warehouse", "sync", path)
        code, out, _ = self.run(capsys, "warehouse", "report", path)
        assert code == 0
        assert "## Overview" in out
        assert "## flooding × static-random" in out
        assert "## naive-unicast × static-random" in out
        code, out, _ = self.run(
            capsys, "warehouse", "report", path, "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("algorithm,adversary,")

    def test_empty_store_errors_like_shard_scan(self, tmp_path, capsys):
        store = RunStore(tmp_path / "empty")
        store.flush()
        path = str(store.path)
        self.run(capsys, "warehouse", "sync", path)
        code, _, err = self.run(capsys, "warehouse", "query", path)
        assert code == 2
        assert "holds no records" in err
