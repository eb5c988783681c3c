"""Observability for the execution stack: tracing, metrics, progress events.

Three pillars, all stdlib-only:

* :mod:`repro.obs.tracing` — span tracing of the staged round kernel
  (``commit``/``adversary``/``delivery``/``accounting``), with a disabled
  default whose cost is one attribute read per run.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with pluggable
  sinks (in-memory, stderr, JSONL); ``repro bench`` publishes through it.
* :mod:`repro.obs.events` — typed ``CellStarted/CellCached/CellCompleted/
  RunFinished`` progress events emitted by ``Experiment.observe``,
  persisted as JSONL traces (:mod:`repro.obs.trace`) and summarized by
  ``repro trace summarize``.

:mod:`repro.obs.logs` wires the CLI's ``-v/-q/--log-level`` flags to the
``"repro"`` stdlib logger.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.obs.events import (
        CellCached,
        CellCompleted,
        CellStarted,
        ProgressEvent,
        ProgressPrinter,
        RunFinished,
        event_from_dict,
        event_to_dict,
    )
    from repro.obs.logs import configure_logging, get_logger
    from repro.obs.metrics import (
        Counter,
        Gauge,
        Histogram,
        InMemorySink,
        JsonlSink,
        MetricsRegistry,
        MetricsSink,
        StderrSink,
        track_peak_memory,
    )
    from repro.obs.trace import (
        TraceWriter,
        read_trace,
        render_trace_summary,
        summarize_trace,
    )
    from repro.obs.tracing import (
        KERNEL_STAGES,
        NULL_TRACER,
        NullTracer,
        STAGE_ACCOUNTING,
        STAGE_ADVERSARY,
        STAGE_COMMIT,
        STAGE_DELIVERY,
        TimingTracer,
        Tracer,
        timing_delta,
    )

__all__ = [
    "CellCached",
    "CellCompleted",
    "CellStarted",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "KERNEL_STAGES",
    "MetricsRegistry",
    "MetricsSink",
    "NULL_TRACER",
    "NullTracer",
    "ProgressEvent",
    "ProgressPrinter",
    "RunFinished",
    "STAGE_ACCOUNTING",
    "STAGE_ADVERSARY",
    "STAGE_COMMIT",
    "STAGE_DELIVERY",
    "StderrSink",
    "TimingTracer",
    "TraceWriter",
    "Tracer",
    "configure_logging",
    "event_from_dict",
    "event_to_dict",
    "get_logger",
    "read_trace",
    "render_trace_summary",
    "summarize_trace",
    "timing_delta",
    "track_peak_memory",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.obs.events": (
            "CellCached",
            "CellCompleted",
            "CellStarted",
            "ProgressEvent",
            "ProgressPrinter",
            "RunFinished",
            "event_from_dict",
            "event_to_dict",
        ),
        "repro.obs.logs": ("configure_logging", "get_logger"),
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "InMemorySink",
            "JsonlSink",
            "MetricsRegistry",
            "MetricsSink",
            "StderrSink",
            "track_peak_memory",
        ),
        "repro.obs.trace": (
            "TraceWriter",
            "read_trace",
            "render_trace_summary",
            "summarize_trace",
        ),
        "repro.obs.tracing": (
            "KERNEL_STAGES",
            "NULL_TRACER",
            "NullTracer",
            "STAGE_ACCOUNTING",
            "STAGE_ADVERSARY",
            "STAGE_COMMIT",
            "STAGE_DELIVERY",
            "TimingTracer",
            "Tracer",
            "timing_delta",
        ),
    },
)
