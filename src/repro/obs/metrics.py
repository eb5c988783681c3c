"""Counters, gauges, and histograms with pluggable sinks.

A :class:`MetricsRegistry` is a small get-or-create namespace of named
instruments:

* :class:`Counter` — monotonically increasing totals (runs executed,
  cache hits, messages sent).
* :class:`Gauge` — last-written values (peak memory, lanes in flight).
* :class:`Histogram` — streaming summaries (count/sum/min/max/mean) of
  observations such as per-run seconds or rounds/sec rates.

``registry.snapshot()`` renders everything to a JSON-ready dict, and
:meth:`MetricsRegistry.publish` pushes that snapshot to any number of
:class:`MetricsSink`s — in-memory (tests), human-readable stderr lines, or
JSONL (one snapshot per line).
``repro bench`` routes its measurements through this registry so bench
payloads and trace files share one vocabulary.

Peak-memory tracking is opt-in via :func:`track_peak_memory`, a context
manager over stdlib ``tracemalloc`` that writes the observed peak into a
gauge; ``tracemalloc`` roughly doubles allocation cost, so it never runs
unless explicitly requested.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, TextIO

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSink",
    "StderrSink",
    "track_peak_memory",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A streaming summary (count/sum/min/max) of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsSink:
    """Receives registry snapshots from :meth:`MetricsRegistry.publish`."""

    def emit(self, snapshot: Dict[str, Any]) -> None:
        raise NotImplementedError


class InMemorySink(MetricsSink):
    """Keeps every published snapshot in a list (tests, embedding callers)."""

    def __init__(self) -> None:
        self.snapshots: List[Dict[str, Any]] = []

    def emit(self, snapshot: Dict[str, Any]) -> None:
        self.snapshots.append(snapshot)


class StderrSink(MetricsSink):
    """Writes one aligned human-readable line per instrument."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream

    def emit(self, snapshot: Dict[str, Any]) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        for kind in ("counters", "gauges", "histograms"):
            for name, value in sorted(snapshot.get(kind, {}).items()):
                if kind == "histograms":
                    rendered = (
                        f"count={value['count']} sum={_fmt(value['sum'])}"
                        f" mean={_fmt(value['mean'])}"
                        f" min={_fmt(value['min'])} max={_fmt(value['max'])}"
                    )
                else:
                    rendered = _fmt(value)
                stream.write(f"[metrics] {name} {rendered}\n")
        stream.flush()


class JsonlSink(MetricsSink):
    """Appends each snapshot as one JSON line."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def emit(self, snapshot: Dict[str, Any]) -> None:
        self._stream.write(json.dumps(snapshot, sort_keys=True) + "\n")
        self._stream.flush()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class MetricsRegistry:
    """A get-or-create namespace of instruments plus attached sinks."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sinks: List[MetricsSink] = []

    # -- instruments --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        self._check_free(name, self._counters)
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        self._check_free(name, self._gauges)
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        self._check_free(name, self._histograms)
        return self._histograms.setdefault(name, Histogram(name))

    def _check_free(self, name: str, home: Dict[str, Any]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not home and name in kind:
                raise ValueError(
                    f"metric {name!r} already registered as a different instrument"
                )

    # -- sinks --------------------------------------------------------------

    def add_sink(self, sink: MetricsSink) -> MetricsSink:
        self._sinks.append(sink)
        return sink

    def publish(self) -> Dict[str, Any]:
        """Snapshot the registry and emit it to every attached sink."""
        snapshot = self.snapshot()
        for sink in self._sinks:
            sink.emit(snapshot)
        return snapshot

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything the registry holds, as a JSON-ready dict."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {name: h.summary() for name, h in self._histograms.items()},
        }


@contextmanager
def track_peak_memory(
    registry: MetricsRegistry, gauge_name: str = "memory.peak_bytes"
) -> Iterator[Gauge]:
    """Record the ``tracemalloc`` allocation peak of a block into a gauge.

    If tracemalloc is already tracing (a caller higher up owns it), the
    peak counter is reset for this block and tracing is left running on
    exit; otherwise this starts and stops tracing around the block.
    """
    # Imported here: only this opt-in gauge needs it, and every plan loads
    # this module (through the warehouse index).
    import tracemalloc

    gauge = registry.gauge(gauge_name)
    already_tracing = tracemalloc.is_tracing()
    if already_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        yield gauge
    finally:
        _, peak = tracemalloc.get_traced_memory()
        gauge.set(float(peak))
        if not already_tracing:
            tracemalloc.stop()
