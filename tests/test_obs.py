"""Tests for the observability layer (:mod:`repro.obs`).

Covers the tracer protocol and its zero-overhead disabled mode, the
identity guarantee (tracing never changes results), metrics instruments
and sinks, typed progress events and their ordering under fresh / cached /
mixed runs, JSONL trace round-trips, the CLI surface (``--trace``,
``trace summarize``, logging flags), and the bench overhead gate logic.
"""

import io
import json
import logging
import time

import pytest

from repro.backends import get_backend
from repro.backends.differential import diff_results
from repro.obs import (
    KERNEL_STAGES,
    NULL_TRACER,
    CellCached,
    CellCompleted,
    CellStarted,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NullTracer,
    ProgressPrinter,
    RunFinished,
    StderrSink,
    TimingTracer,
    TraceWriter,
    event_from_dict,
    event_to_dict,
    read_trace,
    render_trace_summary,
    summarize_trace,
    timing_delta,
    track_peak_memory,
)
from repro.obs.logs import configure_logging, get_logger, resolve_level
from repro.scenarios import ScenarioSpec
from repro.scenarios.runner import run_scenario


def small_spec(num_nodes=10, repetitions=1, **overrides):
    params = dict(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_nodes},
        algorithm="flooding",
        algorithm_params={"rounds_per_token": 8},
        adversary="static-random",
        adversary_params={"num_nodes": num_nodes},
        repetitions=repetitions,
        name="obs-test",
    )
    params.update(overrides)
    return ScenarioSpec(**params)


# ---------------------------------------------------------------------------
# Tracing primitives
# ---------------------------------------------------------------------------


class TestTimingTracer:
    def test_accumulates_totals_and_counts_per_name(self):
        tracer = TimingTracer()
        for _ in range(3):
            with tracer.span("commit"):
                pass
        with tracer.span("delivery"):
            time.sleep(0.01)
        assert tracer.counts == {"commit": 3, "delivery": 1}
        assert tracer.timings()["delivery"] >= 0.01
        assert tracer.timings()["commit"] >= 0.0

    def test_nested_spans_accrue_under_both_names(self):
        tracer = TimingTracer()
        with tracer.span("outer"):
            assert tracer.depth == 1
            with tracer.span("inner"):
                assert tracer.depth == 2
                time.sleep(0.01)
        assert tracer.depth == 0
        assert tracer.max_depth == 2
        # Wall-clock inclusion: the outer span contains the inner's time.
        assert tracer.totals["outer"] >= tracer.totals["inner"] >= 0.01

    def test_out_of_order_close_raises(self):
        tracer = TimingTracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_timings_returns_a_copy(self):
        tracer = TimingTracer()
        with tracer.span("commit"):
            pass
        snapshot = tracer.timings()
        snapshot["commit"] = -1.0
        assert tracer.totals["commit"] >= 0.0

    def test_snapshot_is_json_ready(self):
        tracer = TimingTracer()
        with tracer.span("commit"):
            pass
        payload = json.loads(json.dumps(tracer.snapshot()))
        assert payload["counts"] == {"commit": 1}


class TestNullTracer:
    def test_disabled_by_default_and_shares_one_span(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", round=3)
        with NULL_TRACER.span("anything"):
            pass
        assert NULL_TRACER.timings() is None

    def test_forced_enabled_keeps_spans_free(self):
        forced = NullTracer(enabled=True)
        assert forced.enabled is True
        assert forced.span("commit") is NULL_TRACER.span("commit")


class TestTimingDelta:
    def test_none_after_yields_none(self):
        assert timing_delta({"a": 1.0}, None) is None

    def test_empty_before_copies_after(self):
        after = {"a": 1.0}
        delta = timing_delta(None, after)
        assert delta == {"a": 1.0}
        assert delta is not after

    def test_differences_are_per_name(self):
        before = {"commit": 1.0, "delivery": 2.0}
        after = {"commit": 1.5, "delivery": 2.0, "adversary": 0.25}
        assert timing_delta(before, after) == {"commit": 0.5, "adversary": 0.25}


# ---------------------------------------------------------------------------
# Tracing never changes results
# ---------------------------------------------------------------------------


class TestTracedExecutionIdentity:
    @pytest.mark.parametrize("backend", ["reference", "bitset"])
    def test_traced_run_matches_untraced(self, backend):
        spec = small_spec(backend=backend)
        plain = run_scenario(spec)
        tracer = TimingTracer()
        traced = run_scenario(spec, tracer=tracer)
        assert not diff_results(plain, traced)
        assert plain.timings is None
        assert set(traced.timings) == set(KERNEL_STAGES)
        assert all(seconds >= 0.0 for seconds in traced.timings.values())
        assert tracer.counts["commit"] == traced.rounds

    def test_noop_enabled_tracer_matches_and_collects_nothing(self):
        spec = small_spec(backend="bitset")
        plain = run_scenario(spec)
        traced = run_scenario(spec, tracer=NullTracer(enabled=True))
        assert not diff_results(plain, traced)
        assert traced.timings is None

    def test_shared_tracer_attributes_only_each_runs_seconds(self):
        spec = small_spec(backend="bitset")
        tracer = TimingTracer()
        first = run_scenario(spec, tracer=tracer)
        second = run_scenario(spec, tracer=tracer)
        for stage in KERNEL_STAGES:
            assert first.timings[stage] + second.timings[stage] == pytest.approx(
                tracer.totals[stage]
            )

    def test_batch_lanes_share_group_stage_seconds(self):
        numpy = pytest.importorskip("numpy")  # noqa: F841
        from repro.batch.backend import BatchBackend

        spec = small_spec(repetitions=3)
        backend = BatchBackend()
        plain = backend.run_batch(spec)
        tracer = TimingTracer()
        traced = backend.run_batch(spec, tracer=tracer)
        for untraced_result, traced_result in zip(plain, traced):
            assert not diff_results(untraced_result, traced_result)
        # Per-lane shares sum back to the group totals the tracer saw.
        for stage in KERNEL_STAGES:
            lane_sum = sum(result.timings[stage] for result in traced)
            assert lane_sum == pytest.approx(tracer.totals[stage])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_cross_kind_name_reuse_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="different instrument"):
            registry.gauge("x")

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("rounds")
        assert histogram.summary()["mean"] is None
        for value in (1.0, 2.0, 6.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary == {"count": 3, "sum": 9.0, "min": 1.0, "max": 6.0, "mean": 3.0}

    def test_snapshot_and_in_memory_sink(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        registry.gauge("lanes").set(4)
        sink = registry.add_sink(InMemorySink())
        snapshot = registry.publish()
        assert sink.snapshots == [snapshot]
        assert snapshot["counters"] == {"runs": 1.0}
        assert snapshot["gauges"] == {"lanes": 4}

    def test_stderr_sink_renders_one_line_per_instrument(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.histogram("seconds").observe(0.5)
        stream = io.StringIO()
        registry.add_sink(StderrSink(stream))
        registry.publish()
        lines = stream.getvalue().splitlines()
        assert any(line.startswith("[metrics] runs 2") for line in lines)
        assert any("count=1" in line for line in lines if "seconds" in line)

    def test_jsonl_sink_emits_parseable_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        stream = io.StringIO()
        registry.add_sink(JsonlSink(stream))
        registry.publish()
        registry.publish()
        payloads = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(payloads) == 2
        assert payloads[0]["counters"] == {"runs": 1.0}

    def test_track_peak_memory_records_a_positive_peak(self):
        registry = MetricsRegistry()
        with track_peak_memory(registry) as gauge:
            data = [bytearray(1024) for _ in range(64)]
        del data
        assert gauge.value is not None and gauge.value > 0
        assert registry.snapshot()["gauges"]["memory.peak_bytes"] == gauge.value


# ---------------------------------------------------------------------------
# Progress events
# ---------------------------------------------------------------------------


EVENTS = [
    CellStarted(index=0, total=4, scenario="s", repetition=0, backend="bitset"),
    CellCached(index=1, total=4, scenario="s", repetition=1),
    CellCompleted(
        index=2,
        total=4,
        scenario="s",
        repetition=0,
        backend="batch",
        seconds=0.25,
        completed=True,
        rounds=10,
        total_messages=42,
        stage_seconds={"commit": 0.1, "delivery": 0.15},
    ),
    RunFinished(cells=4, executed=2, cached=2, seconds=1.5),
]


class TestEventSerialization:
    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
    def test_round_trip(self, event):
        payload = json.loads(json.dumps(event_to_dict(event)))
        assert event_from_dict(payload) == event

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown progress event kind"):
            event_from_dict({"event": "nope"})

    def test_unknown_fields_are_rejected(self):
        payload = event_to_dict(EVENTS[1])
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            event_from_dict(payload)

    def test_non_events_are_rejected(self):
        with pytest.raises(TypeError, match="not a progress event"):
            event_to_dict({"event": "cell_started"})


class TtyStream(io.StringIO):
    """An in-memory stream that reports itself as a terminal."""

    def isatty(self):
        return True


class TestProgressPrinter:
    def test_non_tty_prints_only_the_final_summary(self):
        stream = io.StringIO()  # isatty() is False
        printer = ProgressPrinter(stream, label="sweep")
        for event in EVENTS:
            printer(event)
        output = stream.getvalue()
        assert output.count("\n") == 1
        assert "progress: sweep finished" in output
        assert "2 executed, 2 cached" in output
        assert "\r" not in output

    def test_tty_redraws_one_line_in_place_then_clears_it(self):
        stream = TtyStream()
        printer = ProgressPrinter(stream, label="sweep")
        for event in EVENTS[:-1]:
            printer(event)
        drawn = stream.getvalue()
        assert "\n" not in drawn
        frames = drawn.split("\r")[1:]
        assert len(frames) == 3
        assert frames[0].startswith("sweep: cell 1/4 s [")
        assert frames[1].startswith("sweep: 1/4 cells (0 executed, 1 cached) [")
        assert frames[2].startswith("sweep: 2/4 cells (1 executed, 1 cached) [")

        printer(EVENTS[-1])
        # The caller prints its own summary: finishing only blanks the line.
        cleared = stream.getvalue()[len(drawn):]
        assert cleared == "\r" + " " * len(frames[2]) + "\r"
        assert "progress:" not in stream.getvalue()

    def test_tty_pads_a_shorter_line_over_a_longer_one(self):
        stream = TtyStream()
        printer = ProgressPrinter(stream, label="sweep")
        printer(
            CellStarted(
                index=0, total=2, scenario="x" * 60, repetition=0, backend="bitset"
            )
        )
        printer(CellCached(index=1, total=2, scenario="x", repetition=0))
        long_frame, short_frame = stream.getvalue().split("\r")[1:]
        # Trailing blanks overwrite what is left of the longer line.
        assert len(short_frame) == len(long_frame)
        text = short_frame.rstrip(" ")
        assert text.startswith("sweep: 1/2 cells (0 executed, 1 cached) [")
        assert text.endswith("s]")
        assert len(text) < len(short_frame)

    def test_default_stream_is_stderr(self, capsys):
        printer = ProgressPrinter(label="run")
        for event in EVENTS:
            printer(event)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("progress: run finished — 4 cell(s)")

    def test_sweep_prints_one_summary_line_per_run(self, tmp_path, capsys):
        from repro.cli import main

        args = ["sweep", "-n", "8", "-k", "6", "--grid", "seed=0,1",
                "--repetitions", "2", "--store", str(tmp_path / "store")]
        assert main(args) == 0
        first = capsys.readouterr().err.splitlines()
        assert len(first) == 1
        assert first[0].startswith(
            "progress: sweep finished — 4 cell(s), 4 executed, 0 cached in "
        )
        assert main(args) == 0
        second = capsys.readouterr().err.splitlines()
        assert len(second) == 1
        assert second[0].startswith(
            "progress: sweep finished — 4 cell(s), 0 executed, 4 cached in "
        )


class TestProgressEventOrdering:
    def run_events(self, experiment):
        events = []
        records = experiment.observe(events.append).run().records()
        return events, records

    def make_experiment(self, store, num_nodes=(8, 10), repetitions=2):
        from repro import Experiment

        return (
            Experiment.grid(
                algorithm="flooding",
                adversary="static-random",
                num_nodes=list(num_nodes),
                num_tokens=4,
            )
            .seeds(repetitions)
            .store(store)
        )

    def test_fresh_run_emits_started_completed_pairs_then_finished(self, tmp_path):
        events, records = self.run_events(self.make_experiment(tmp_path / "store"))
        assert len(records) == 4
        kinds = [type(event).__name__ for event in events]
        assert kinds == (
            ["CellStarted", "CellCompleted"] * 4 + ["RunFinished"]
        )
        assert [event.index for event in events[:-1]] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert all(event.total == 4 for event in events[:-1])
        finished = events[-1]
        assert (finished.cells, finished.executed, finished.cached) == (4, 4, 0)
        assert all(
            event.seconds >= 0.0
            for event in events
            if isinstance(event, CellCompleted)
        )

    def test_fully_cached_run_emits_cached_events_only(self, tmp_path):
        store = tmp_path / "store"
        self.make_experiment(store).run().records()
        events, records = self.run_events(self.make_experiment(store))
        assert len(records) == 4
        kinds = [type(event).__name__ for event in events]
        assert kinds == ["CellCached"] * 4 + ["RunFinished"]
        finished = events[-1]
        assert (finished.cells, finished.executed, finished.cached) == (4, 0, 4)

    def test_mixed_run_interleaves_cached_and_fresh_in_plan_order(self, tmp_path):
        store = tmp_path / "store"
        self.make_experiment(store, num_nodes=(8,)).run().records()
        events, records = self.run_events(
            self.make_experiment(store, num_nodes=(8, 10))
        )
        assert len(records) == 4
        kinds = [type(event).__name__ for event in events]
        assert kinds == (
            ["CellCached"] * 2
            + ["CellStarted", "CellCompleted"] * 2
            + ["RunFinished"]
        )
        finished = events[-1]
        assert (finished.executed, finished.cached) == (2, 2)

    def test_replaying_records_does_not_re_emit_events(self, tmp_path):
        events = []
        runs = (
            self.make_experiment(tmp_path / "store")
            .observe(events.append)
            .run()
        )
        runs.records()
        emitted = len(events)
        runs.records()
        assert len(events) == emitted

    def test_timings_flag_attaches_stage_seconds(self, tmp_path):
        events = []
        (
            self.make_experiment(tmp_path / "store")
            .observe(events.append, timings=True)
            .run()
            .records()
        )
        completed = [e for e in events if isinstance(e, CellCompleted)]
        assert completed
        for event in completed:
            assert set(event.stage_seconds) == set(KERNEL_STAGES)

    def test_parallel_run_emits_the_serial_event_stream(self, tmp_path):
        def comparable(events):
            # Wall-clock fields are the only ones allowed to differ.
            return [
                {
                    key: value
                    for key, value in event_to_dict(event).items()
                    if key not in ("seconds", "stage_seconds")
                }
                for event in events
            ]

        serial, serial_records = self.run_events(self.make_experiment(tmp_path / "serial"))
        parallel = []
        parallel_records = (
            self.make_experiment(tmp_path / "parallel")
            .observe(parallel.append)
            .run(workers=2)
            .records()
        )
        assert parallel_records == serial_records
        assert comparable(parallel) == comparable(serial)

    def test_observe_rejects_non_callables(self, tmp_path):
        from repro.utils.validation import ConfigurationError

        with pytest.raises(ConfigurationError):
            self.make_experiment(tmp_path / "store").observe("not-a-callable")


# ---------------------------------------------------------------------------
# JSONL traces
# ---------------------------------------------------------------------------


class TestTraceFiles:
    def test_writer_round_trips_every_event_kind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            for event in EVENTS:
                writer(event)
        assert list(read_trace(path)) == EVENTS

    def test_writer_outside_context_raises(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.jsonl")
        with pytest.raises(RuntimeError, match="outside its context"):
            writer(EVENTS[0])

    def test_invalid_line_reports_path_and_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "cell_cached", "index": 0, "total": 1, '
                        '"scenario": "s", "repetition": 0}\nnot json\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
            list(read_trace(path))

    def test_summarize_aggregates_per_backend_and_stage(self):
        summary = summarize_trace(iter(EVENTS))
        assert summary["cached"] == 1
        assert summary["run"]["executed"] == 2
        batch = summary["backends"]["batch"]
        assert batch["cells"] == 1
        assert batch["seconds"] == pytest.approx(0.25)
        assert batch["stages"] == {"commit": 0.1, "delivery": 0.15}

    def test_render_orders_kernel_stages_and_appends_run_line(self):
        rendered = render_trace_summary(summarize_trace(iter(EVENTS)))
        header = rendered.splitlines()[0]
        assert header.index("Commit") < header.index("Delivery")
        assert "run: 4 cell(s), 2 executed, 2 cached" in rendered

    def test_render_json_is_parseable(self):
        payload = json.loads(
            render_trace_summary(summarize_trace(iter(EVENTS)), "json")
        )
        assert payload[0]["backend"] == "batch"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliTracing:
    def sweep(self, tmp_path, *extra):
        from repro.cli import main

        return main(
            [
                "sweep",
                "--algorithm",
                "flooding",
                "--adversary",
                "static-random",
                "-n",
                "10",
                "--repetitions",
                "2",
                "--store",
                str(tmp_path / "store"),
                *extra,
            ]
        )

    def test_sweep_trace_then_summarize(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        assert self.sweep(tmp_path, "--trace", str(trace_path)) == 0
        captured = capsys.readouterr()
        assert "total runtime:" in captured.out
        assert f"trace -> {trace_path}" in captured.out
        events = list(read_trace(trace_path))
        assert isinstance(events[-1], RunFinished)

        assert main(["trace", "summarize", str(trace_path)]) == 0
        rendered = capsys.readouterr().out
        for stage in ("Commit", "Adversary", "Delivery", "Accounting"):
            assert stage in rendered

    def test_run_trace_covers_the_direct_path(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run",
                    "--algorithm",
                    "flooding",
                    "--adversary",
                    "static-random",
                    "-n",
                    "10",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        summary = summarize_trace(read_trace(trace_path))
        (entry,) = summary["backends"].values()
        assert entry["cells"] == 1
        assert set(entry["stages"]) == set(KERNEL_STAGES)

    def test_summarize_rejects_traces_without_completed_cells(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "summarize", str(path)]) == 2
        assert "no completed-cell events" in capsys.readouterr().err

    def test_unknown_log_level_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["--log-level", "bogus", "list"]) == 2
        assert "unknown log level" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Logging configuration
# ---------------------------------------------------------------------------


class TestLogging:
    def test_resolve_level_mappings(self):
        assert resolve_level() == logging.WARNING
        assert resolve_level(verbosity=1) == logging.INFO
        assert resolve_level(verbosity=3) == logging.DEBUG
        assert resolve_level(quiet=True) == logging.ERROR
        # An explicit level wins over both flags.
        assert resolve_level("debug", verbosity=0, quiet=True) == logging.DEBUG
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("bogus")

    def test_get_logger_prefixes_module_names(self):
        assert get_logger().name == "repro"
        assert get_logger("batch").name == "repro.batch"
        assert get_logger("repro.batch").name == "repro.batch"

    def test_configure_logging_is_idempotent_and_writes_to_stream(self):
        stream = io.StringIO()
        logger = configure_logging(verbosity=1, stream=stream)
        before = len(logger.handlers)
        configure_logging(verbosity=1, stream=stream)
        assert len(logger.handlers) == before
        get_logger("obs-test").info("hello from the library")
        assert "INFO repro.obs-test: hello from the library" in stream.getvalue()
        # Reconfiguring to quiet suppresses INFO.
        configure_logging(quiet=True, stream=stream)
        size = len(stream.getvalue())
        get_logger("obs-test").info("suppressed")
        assert len(stream.getvalue()) == size


# ---------------------------------------------------------------------------
# Bench overhead gate logic
# ---------------------------------------------------------------------------


class TestObsOverheadGate:
    def entry(self, **overrides):
        entry = {
            "scenario": "bench-flooding-n128-k128",
            "backend": "bitset",
            "trials": 3,
            "seconds": {"plain": 1.0, "disabled": 1.01, "noop": 1.05},
            "overhead_pct": 1.0,
            "noop_overhead_pct": 5.0,
            "equal": True,
            "differences": [],
        }
        entry.update(overrides)
        return entry

    def test_passes_under_the_ceiling(self):
        from repro.benchmark import obs_overhead_gate

        passed, message = obs_overhead_gate(self.entry(), 2.0)
        assert passed
        assert "disabled tracer +1.00%" in message
        assert "no-op spans +5.00%" in message

    def test_fails_over_the_ceiling(self):
        from repro.benchmark import obs_overhead_gate

        passed, _ = obs_overhead_gate(self.entry(overhead_pct=2.5), 2.0)
        assert not passed

    def test_fails_on_result_divergence_even_when_fast(self):
        from repro.benchmark import obs_overhead_gate

        passed, message = obs_overhead_gate(
            self.entry(equal=False, differences=["disabled:rounds"]), 2.0
        )
        assert not passed
        assert "MISMATCH" in message

    def test_entry_metrics_land_in_the_payload(self):
        from repro.benchmark import _record_entry_metrics

        registry = MetricsRegistry()
        _record_entry_metrics(
            registry,
            "bench",
            {
                "equal": False,
                "seconds": {"reference": 2.0, "bitset": 0.5},
                "speedup": {"bitset": 4.0},
            },
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"bench.entries": 1.0, "bench.mismatches": 1.0}
        assert snapshot["histograms"]["bench.speedup.bitset"]["mean"] == 4.0
