"""Tests for the fluent Experiment API (:mod:`repro.api`)."""

import errno
import json
import types

import pytest

from repro.api import (
    Experiment,
    ExperimentError,
    ExperimentPlan,
    PlanCell,
    RunSet,
    load_runs,
)
from repro.obs import CellCompleted
from repro.results import RunRecord, RunStore
from repro.scenarios import ScenarioSpec, record_to_json_line, run_spec, sweep
from repro.utils.validation import ConfigurationError, ReproError


def small_experiment(**overrides):
    """A fast two-scenario, two-repetition experiment."""
    params = dict(
        algorithm="flooding",
        adversary="static-random",
        num_nodes=[6, 8],
        num_tokens=4,
    )
    params.update(overrides)
    return Experiment.grid(**params).seeds(2)


class TestExperimentBuilder:
    def test_grid_splits_fields_dimensions_and_problem_params(self):
        experiment = Experiment.grid(
            algorithm="flooding",
            adversary="static-random",
            backend="bitset",
            seed=3,
            num_nodes=[8, 10],
            num_tokens=4,
        )
        specs = experiment.specs()
        assert len(specs) == 2
        assert {spec.problem_params["num_nodes"] for spec in specs} == {8, 10}
        assert all(spec.algorithm == "flooding" for spec in specs)
        assert all(spec.backend == "bitset" for spec in specs)
        assert all(spec.seed == 3 for spec in specs)
        assert all(spec.problem_params["num_tokens"] == 4 for spec in specs)

    def test_colliding_grid_keys_are_rejected_not_silently_merged(self):
        with pytest.raises(ConfigurationError, match="both address"):
            Experiment.grid(
                {"problem.num_nodes": [8]}, num_nodes=[16, 32], num_tokens=4
            )
        with pytest.raises(ConfigurationError, match="both address"):
            Experiment.grid({"problem.num_nodes": [8, 64]}, num_nodes=16)
        # The identically spelled collision (mapping + kwarg) is caught too.
        with pytest.raises(ConfigurationError, match="pass each once"):
            Experiment.grid({"num_nodes": [8, 64]}, num_nodes=16, num_tokens=4)

    def test_dotted_keys_go_through_the_dimensions_mapping(self):
        experiment = Experiment.grid(
            {"adversary.changes_per_round": [1, 2]},
            num_nodes=8,
            num_tokens=4,
        )
        specs = experiment.specs()
        assert {spec.adversary_params["changes_per_round"] for spec in specs} == {1, 2}

    def test_fluent_methods_return_new_experiments(self):
        base = small_experiment()
        assert base.seeds(5) is not base
        assert base.backend("bitset") is not base
        assert base.store("somewhere") is not base
        # The original is untouched: builders are reusable.
        assert all(spec.repetitions == 2 for spec in base.specs())

    def test_seeds_int_sets_repetitions_and_list_sweeps_seed(self):
        assert all(spec.repetitions == 7 for spec in small_experiment().seeds(7).specs())
        swept = small_experiment().seeds([0, 1, 2]).specs()
        assert {spec.seed for spec in swept} == {0, 1, 2}

    def test_configure_merges_section_params(self):
        experiment = small_experiment().configure(problem={"num_tokens": 9}, max_rounds=50)
        assert all(spec.problem_params["num_tokens"] == 9 for spec in experiment.specs())
        assert all(spec.max_rounds == 50 for spec in experiment.specs())

    def test_vary_replaces_an_existing_dimension(self):
        experiment = small_experiment().vary("num_nodes", [12])
        assert [spec.problem_params["num_nodes"] for spec in experiment.specs()] == [12]

    def test_explicit_specs_cannot_gain_dimensions(self):
        spec = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 6, "num_tokens": 4},
            algorithm="flooding",
            adversary="static-random",
            adversary_params={"num_nodes": 6},
        )
        experiment = Experiment.from_specs([spec])
        with pytest.raises(ExperimentError, match="explicit"):
            experiment.vary("num_nodes", [8])
        # But execution details still configure fluently.
        assert experiment.backend("bitset").specs()[0].backend == "bitset"

    def test_invalid_inputs_raise_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="no values"):
            Experiment.grid(num_nodes=[])
        with pytest.raises(ConfigurationError, match="seeds"):
            small_experiment().seeds(True)
        with pytest.raises(ConfigurationError, match="at least one spec"):
            Experiment.from_specs([])
        with pytest.raises(ConfigurationError, match="ScenarioSpec"):
            Experiment.from_specs([object()])

    def test_registry_typos_fail_at_plan_time_with_a_suggestion(self):
        experiment = Experiment.grid(algorithm="floodng", num_nodes=8, num_tokens=4)
        with pytest.raises(ConfigurationError, match="did you mean 'flooding'"):
            experiment.plan()

    def test_adversary_num_nodes_is_autofilled_per_grid_point(self):
        specs = Experiment.grid(
            adversary="star-oscillator", num_nodes=[6, 8], num_tokens=4
        ).specs()
        assert [spec.adversary_params["num_nodes"] for spec in specs] == [6, 8]

    def test_explicit_adversary_num_nodes_wins_over_autofill(self):
        specs = Experiment.grid(
            {"adversary.num_nodes": 6},
            adversary="star-oscillator",
            num_nodes=8,
            num_tokens=4,
        ).specs()
        assert specs[0].adversary_params["num_nodes"] == 6


class TestPlan:
    def test_plan_enumerates_cells_with_derived_seeds(self):
        plan = small_experiment().plan()
        assert isinstance(plan, ExperimentPlan)
        assert len(plan) == 4
        assert all(isinstance(cell, PlanCell) and not cell.cached for cell in plan)
        assert plan.describe() == {"cells": 4, "pending": 4, "cached": 0, "scenarios": 2}
        seeds = {cell.seed for cell in plan}
        assert len(seeds) == 4  # content-derived, all distinct here

    def test_plan_against_a_store_marks_cached_cells(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        experiment.run().records()
        plan = experiment.plan()
        assert plan.describe() == {"cells": 4, "pending": 0, "cached": 4, "scenarios": 2}
        assert all(cell.cached_record["completed"] for cell in plan.cached)

    def test_stale_schema_records_do_not_satisfy_cells(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        runset = experiment.run()
        records = runset.records()
        # Rewrite the store with the same records under an older schema.
        stale_dir = tmp_path / "stale"
        stale = RunStore(stale_dir)
        stale.add([dict(record, schema_version=1) for record in records])
        plan = small_experiment().store(stale_dir).plan()
        assert len(plan.pending) == 4

    def test_stale_schema_cells_are_upgraded_in_place_not_forever(self, tmp_path):
        """Re-executed cells supersede the stale stored record (last-wins),
        so the upgrade happens exactly once — not on every run."""
        records = small_experiment().store(tmp_path / "store").run().records()
        stale_dir = tmp_path / "stale"
        RunStore(stale_dir).add([dict(record, schema_version=1) for record in records])
        upgrade = small_experiment().store(stale_dir).run()
        assert (upgrade.executed_count, upgrade.stored_count) == (4, 4)
        # The store now serves the upgraded records...
        stored = RunStore(stale_dir).records()
        assert len(stored) == 4
        assert all(record.schema_version != 1 for record in stored)
        # ...and the next run finds everything cached.
        rerun = small_experiment().store(stale_dir).run()
        assert (rerun.executed_count, rerun.cached_count) == (0, 4)

    def test_changed_max_rounds_invalidates_cached_cells(self, tmp_path):
        """max_rounds is excluded from scenario_key (seeding stability) but
        changes the result, so it must invalidate the cache."""
        store_dir = tmp_path / "store"
        capped = small_experiment().configure(max_rounds=1).store(store_dir)
        capped_run = capped.run()
        assert capped_run.executed_count == 4
        assert not capped_run.completed
        uncapped = small_experiment().store(store_dir)
        uncapped_run = uncapped.run()
        assert uncapped_run.executed_count == 4  # nothing served stale
        assert uncapped_run.completed
        # The uncapped records superseded the capped ones; re-running the
        # uncapped experiment is now fully cached...
        assert uncapped.run().executed_count == 0
        # ...and the capped variant correctly re-executes again.
        assert capped.plan().describe()["pending"] == 4

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError, match="workers"):
            small_experiment().plan().run(workers=0)

    @pytest.mark.parametrize("workers", [-1, True])
    def test_workers_must_be_a_positive_int(self, workers):
        with pytest.raises(ConfigurationError, match="positive int"):
            small_experiment().run(workers=workers)


class TestRunSet:
    def test_records_match_the_reference_engine_byte_for_byte(self):
        base = ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": 6, "num_tokens": 4},
            algorithm="flooding",
            adversary="static-random",
            adversary_params={"num_nodes": 6},
            repetitions=2,
        )
        specs = sweep(base, {"problem.num_nodes": [6, 8]})
        specs = [
            spec.with_params(adversary={"num_nodes": spec.problem_params["num_nodes"]})
            for spec in specs
        ]
        reference = [record for spec in specs for record in run_spec(spec)]
        fluent = Experiment.from_specs(specs).run().records()
        assert [record_to_json_line(r) for r in fluent] == [
            record_to_json_line(r) for r in reference
        ]

    def test_parallel_run_is_byte_identical_to_serial(self):
        serial = small_experiment().run(workers=1).records()
        parallel = small_experiment().run(workers=2).records()
        assert [record_to_json_line(r) for r in parallel] == [
            record_to_json_line(r) for r in serial
        ]

    def test_iteration_streams_and_persists_incrementally(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        runset = experiment.run()
        iterator = iter(runset)
        assert isinstance(iterator, types.GeneratorType)
        first = next(iterator)
        # The first record is already durable before the batch finishes.
        assert len(RunStore(tmp_path / "store")) == 1
        rest = list(iterator)
        assert [first] + rest == runset.records()
        assert len(RunStore(tmp_path / "store")) == 4

    def test_new_iteration_supersedes_a_partial_one(self):
        runset = small_experiment().run()
        old_iterator = iter(runset)
        first = next(old_iterator)
        # A second iteration explicitly closes the first (no reliance on
        # garbage collection) and replays its progress without re-running.
        new_iterator = iter(runset)
        assert next(new_iterator) == first
        with pytest.raises(StopIteration):
            next(old_iterator)
        assert len(list(new_iterator)) == 3
        assert runset.executed_count == 4
        assert isinstance(ExperimentError("x"), ReproError)

    def test_abandoned_iteration_resumes_without_reexecuting(self, tmp_path):
        runset = small_experiment().store(tmp_path / "store").run()
        for record in runset:
            first = record
            break  # abandon after one cell
        records = runset.records()  # resumes: replays the prefix, runs the rest
        assert records[0] == first
        assert len(records) == 4
        assert runset.executed_count == 4  # each cell executed exactly once
        assert runset.cached_count == 0

    def test_abandoned_parallel_iteration_resumes_without_reexecuting(self, tmp_path):
        runset = small_experiment().store(tmp_path / "store").run(workers=2)
        for record in runset:
            first = record
            break  # abandon mid-run: the worker pool is torn down
        records = runset.records()
        assert records[0] == first
        assert records == small_experiment().run().records()
        assert runset.executed_count == 4
        assert len(RunStore(tmp_path / "store")) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_store_write_propagates_and_a_rerun_executes_every_cell(
        self, tmp_path, monkeypatch, workers
    ):
        experiment = small_experiment().store(tmp_path / "store")

        def full_disk(self, records, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(RunStore, "add", full_disk)
            with pytest.raises(OSError, match="No space left"):
                experiment.run(workers=workers).records()
        # Nothing was stored, so the re-run plans and executes every cell.
        assert experiment.plan().describe()["pending"] == 4
        retry = experiment.run(workers=workers)
        assert retry.records() == small_experiment().run().records()
        assert retry.executed_count == 4
        assert len(RunStore(tmp_path / "store")) == 4

    def test_serial_sweep_stores_each_cell_before_the_next_runs(
        self, tmp_path, monkeypatch
    ):
        import repro.api

        run_cell = repro.api._run_cell

        def fail_on_repetition_one(spec, run_as, repetition, collect_timings):
            if repetition == 1:
                raise RuntimeError("repetition 1 failed")
            return run_cell(spec, run_as, repetition, collect_timings)

        experiment = churn_experiment().seeds(3).store(tmp_path / "store")
        monkeypatch.setattr(repro.api, "_run_cell", fail_on_repetition_one)
        with pytest.raises(RuntimeError, match="repetition 1 failed"):
            experiment.run().records()
        stored = RunStore(tmp_path / "store").records()
        assert [record.repetition for record in stored] == [0]

    def test_parallel_non_vectorizable_cells_run_on_bitset(self):
        specs = churn_experiment(num_nodes=[6, 8]).seeds(3).specs()
        events = []
        records = (
            Experiment.from_specs(specs).observe(events.append).run(workers=2).records()
        )
        completed = [event for event in events if isinstance(event, CellCompleted)]
        assert [event.backend for event in completed] == ["bitset"] * 6
        assert records == [record for spec in specs for record in run_spec(spec)]

    def test_materialized_runset_replays_without_reexecuting(self):
        runset = small_experiment().run()
        first = runset.records()
        assert runset.executed_count == 4
        assert list(runset) == first  # replay, no second execution
        assert runset.executed_count == 4

    def test_runset_needs_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            RunSet()


def churn_experiment(**overrides):
    """Algorithm 1 against a churning adversary: the competitive-cost sweep."""
    params = dict(
        algorithm="single-source",
        adversary="churn",
        num_nodes=6,
        num_tokens=3,
    )
    params.update(overrides)
    return Experiment.grid(
        {"adversary.changes_per_round": 2, "adversary.edge_probability": 0.4},
        **params,
    )


class TestRepetitionSweeps:
    """Seeded repetition sweeps run end to end through Experiment/RunSet."""

    def test_run_produces_one_record_per_repetition(self):
        records = churn_experiment().seeds(3).run().records()
        assert len(records) == 3
        assert all(record["completed"] for record in records)
        assert [record["repetition"] for record in records] == [0, 1, 2]
        assert len({record["seed"] for record in records}) == 3

    def test_records_carry_sweep_parameters(self):
        records = (
            churn_experiment(name="x")
            .vary("adversary.changes_per_round", [1, 3])
            .run()
            .records()
        )
        assert [
            record["spec"]["adversary_params"]["changes_per_round"] for record in records
        ] == [1, 3]
        assert all((record["n"], record["k"]) == (6, 3) for record in records)
        assert all(record["scenario"] == "x" for record in records)

    def test_repetitions_must_be_positive(self):
        for count in (0, -2):
            with pytest.raises(ConfigurationError, match="repetitions"):
                churn_experiment().seeds(count)

    def test_runs_are_reproducible_for_same_base_seed(self):
        first = churn_experiment(seed=5).seeds(2).run().records()
        again = churn_experiment(seed=5).seeds(2).run().records()
        other = churn_experiment(seed=6).seeds(2).run().records()
        assert [record_to_json_line(r) for r in first] == [
            record_to_json_line(r) for r in again
        ]
        assert [r["seed"] for r in first] != [r["seed"] for r in other]

    def test_sweep_runs_every_configuration(self):
        records = churn_experiment(num_nodes=[5, 7]).seeds(2).run().records()
        assert [(record["n"], record["repetition"]) for record in records] == [
            (5, 0),
            (5, 1),
            (7, 0),
            (7, 1),
        ]

    def test_aggregate_groups_and_averages(self):
        runset = churn_experiment(num_nodes=[5, 7]).seeds(2).run()
        rows = runset.aggregate(by=["n"]).rows
        assert [row["n"] for row in rows] == [5, 7]
        assert [row["runs"] for row in rows] == [2, 2]
        assert all(row["completed"] for row in rows)
        for row in rows:
            messages = [r["total_messages"] for r in runset if r["n"] == row["n"]]
            assert row["total_messages_mean"] == sum(messages) / len(messages)
            assert row["total_messages_mean"] > 0


class TestIncrementalReruns:
    """The acceptance proof: re-runs execute only the missing delta."""

    def test_second_run_executes_nothing(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        first = experiment.run()
        assert (first.executed_count, first.cached_count) == (4, 0)
        second = experiment.run()
        assert (second.executed_count, second.cached_count) == (0, 4)
        assert second.records() == first.records()

    def test_parallel_rerun_is_fully_cached_and_byte_identical(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        first = experiment.run(workers=2)
        records = first.records()
        assert (first.executed_count, first.cached_count) == (4, 0)
        events = []
        second = experiment.observe(events.append).run(workers=2)
        assert json.dumps(second.records()) == json.dumps(records)
        assert (second.executed_count, second.cached_count) == (0, 4)
        assert [type(event).__name__ for event in events] == (
            ["CellCached"] * 4 + ["RunFinished"]
        )

    def test_grown_grid_executes_only_the_delta(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        experiment.run().records()
        grown = experiment.vary("num_nodes", [6, 8, 10]).seeds(3)
        runset = grown.run()
        # 3 scenarios x 3 repetitions = 9 cells; 2x2 already stored.
        assert runset.cached_count == 4
        assert runset.executed_count == 5
        assert len(runset) == 9

    def test_incremental_output_is_byte_identical_to_a_cold_run(self, tmp_path):
        warm = small_experiment().store(tmp_path / "warm")
        warm.run().records()                      # seed the store with the 2x2 grid
        grown = warm.vary("num_nodes", [6, 8, 10]).seeds(3)
        incremental = grown.run()
        assert incremental.executed_count == 5

        cold = (
            small_experiment()
            .vary("num_nodes", [6, 8, 10])
            .seeds(3)
            .store(tmp_path / "cold")
            .run()
        )
        assert cold.executed_count == 9

        # Records agree on every measured field and on scenario identity.
        # (Embedded specs may differ in execution-detail fields like
        # `repetitions`: a cached record honestly reports the run that
        # produced it — those fields are excluded from scenario_key and
        # never reach aggregates or reports.)
        def science(record):
            return {key: value for key, value in record.items() if key != "spec"}

        from repro.results.records import RunRecord

        assert [science(r) for r in incremental.records()] == [
            science(r) for r in cold.records()
        ]
        assert [RunRecord.from_dict(r).scenario_key() for r in incremental.records()] == [
            RunRecord.from_dict(r).scenario_key() for r in cold.records()
        ]
        assert incremental.aggregate(by=["n"]).table("md") == cold.aggregate(
            by=["n"]
        ).table("md")
        assert incremental.aggregate(by=["n"]).compare(bounds=True).report(
            "md"
        ) == cold.aggregate(by=["n"]).compare(bounds=True).report("md")
        # Both stores converged to the same scenarios and repetitions.
        assert [r.identity() for r in RunStore(tmp_path / "warm").records()] == [
            r.identity() for r in RunStore(tmp_path / "cold").records()
        ]


class TestPipelineHandles:
    def test_one_expression_pipeline(self, tmp_path):
        report = (
            Experiment.grid(
                algorithm="flooding",
                adversary="static-random",
                num_nodes=[6, 8],
                num_tokens=4,
            )
            .seeds(2)
            .backend("bitset")
            .store(tmp_path / "store")
            .run(workers=2)
            .aggregate(by=["n"])
            .compare(bounds=True)
            .report("md")
        )
        assert report.startswith("# Results report")
        assert "Table 1 (paper vs measured)" in report

    def test_aggregate_rows_and_table_formats(self):
        aggregated = small_experiment().run().aggregate(by=["n"])
        assert aggregated.group_by == ("n",)
        rows = list(aggregated)
        assert [row["n"] for row in rows] == [6, 8]
        assert all(row["runs"] == 2 for row in rows)
        assert aggregated.table("md").startswith("| n |")
        assert aggregated.table("csv").splitlines()[0].startswith("n,runs")
        parsed = json.loads(aggregated.table("json"))
        assert len(parsed) == len(rows)

    def test_comparison_rows_and_bounds_flag(self):
        runset = small_experiment().run()
        comparison = runset.compare(x_axis="n")
        assert all(row["algorithm"] == "flooding" for row in comparison)
        assert all(row["verdict"] in ("within bound", "above bound") for row in comparison)
        assert len(runset.aggregate().compare(bounds=False)) == 0

    def test_bounds_false_suppresses_verdicts_everywhere(self):
        runset = small_experiment().run()
        unbounded = runset.aggregate().compare(bounds=False)
        with pytest.raises(ConfigurationError, match="bounds=False"):
            unbounded.table()
        document = unbounded.report()
        assert "Paper bounds vs measured" not in document
        assert "Table 1" not in document
        assert document.startswith("# Results report")
        # With bounds (the default) both sections are present.
        assert "Table 1 (paper vs measured)" in runset.compare().report()

    def test_full_report_is_markdown_only(self):
        comparison = small_experiment().run().compare()
        with pytest.raises(ConfigurationError, match="markdown"):
            comparison.report("csv")

    def test_load_runs_over_store_and_jsonl(self, tmp_path):
        experiment = small_experiment().store(tmp_path / "store")
        records = experiment.run().records()
        from_store = load_runs(tmp_path / "store")
        assert len(from_store) == len(records)
        jsonl = tmp_path / "runs.jsonl"
        jsonl.write_text("".join(record_to_json_line(r) + "\n" for r in records))
        from_file = load_runs(str(jsonl))
        assert from_file.aggregate(by=["n"]).table("md") == from_store.aggregate(
            by=["n"]
        ).table("md")

    def test_records_built_runsets_report_without_parsing_again(self, monkeypatch):
        records = small_experiment().run().records()
        by_dicts = RunSet.from_records(records)
        expected = (by_dicts.report("md"), by_dicts.aggregate().rows)
        by_records = RunSet.from_records([RunRecord.from_dict(r) for r in records])
        parse = RunRecord.from_dict.__func__
        parsed = []

        def counting_parse(cls, payload):
            parsed.append(payload)
            return parse(cls, payload)

        monkeypatch.setattr(RunRecord, "from_dict", classmethod(counting_parse))
        for runset in (by_records, by_dicts):
            assert (runset.report("md"), runset.aggregate().rows) == expected
        assert parsed == []
        assert by_records.records() == records

    def test_load_runs_rejects_missing_sources(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such"):
            load_runs(str(tmp_path / "nope.jsonl"))
