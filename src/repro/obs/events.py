"""Typed progress events emitted by the Experiment pipeline.

``Experiment.observe(callback)`` registers observers; while the resulting
:class:`~repro.api.RunSet` streams records, each plan cell produces:

* :class:`CellStarted` — a pending cell is about to execute,
* :class:`CellCompleted` — it finished (wall seconds, outcome summary,
  optional per-stage timing breakdown), or
* :class:`CellCached` — the cell was a store hit and was read back,

followed by one :class:`RunFinished` after the stream is exhausted.
Events arrive in plan order, exactly once per cell per run.

Every event round-trips through :func:`event_to_dict` /
:func:`event_from_dict` (the ``"event"`` key carries the kind), which is
the line format of ``--trace out.jsonl`` files.  :class:`ProgressPrinter`
is the CLI's built-in observer: a live carriage-return progress line on a
TTY, a final summary line otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, TextIO, Union

__all__ = [
    "CellCached",
    "CellCompleted",
    "CellStarted",
    "ProgressEvent",
    "ProgressPrinter",
    "RunFinished",
    "event_from_dict",
    "event_to_dict",
]


@dataclass(frozen=True)
class CellStarted:
    """A pending plan cell is about to execute."""

    index: int
    total: int
    scenario: str
    repetition: int
    backend: Optional[str] = None


@dataclass(frozen=True)
class CellCached:
    """A plan cell was satisfied from the bound store without executing."""

    index: int
    total: int
    scenario: str
    repetition: int


@dataclass(frozen=True)
class CellCompleted:
    """A pending plan cell finished executing."""

    index: int
    total: int
    scenario: str
    repetition: int
    backend: Optional[str] = None
    seconds: Optional[float] = None
    completed: Optional[bool] = None
    rounds: Optional[int] = None
    total_messages: Optional[int] = None
    #: Wall seconds per kernel stage (commit/adversary/delivery/accounting),
    #: present only when the run collected timings.
    stage_seconds: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class RunFinished:
    """The RunSet stream is exhausted."""

    cells: int
    executed: int
    cached: int
    seconds: float


ProgressEvent = Union[CellStarted, CellCached, CellCompleted, RunFinished]

_EVENT_KINDS = {
    "cell_started": CellStarted,
    "cell_cached": CellCached,
    "cell_completed": CellCompleted,
    "run_finished": RunFinished,
}
_KIND_NAMES = {cls: name for name, cls in _EVENT_KINDS.items()}


def event_to_dict(event: ProgressEvent) -> Dict[str, Any]:
    """Render an event as a JSON-ready dict with an ``"event"`` kind key."""
    kind = _KIND_NAMES.get(type(event))
    if kind is None:
        raise TypeError(f"not a progress event: {event!r}")
    payload = dataclasses.asdict(event)
    payload["event"] = kind
    return payload


def event_from_dict(payload: Dict[str, Any]) -> ProgressEvent:
    """Rebuild an event from its :func:`event_to_dict` form."""
    data = dict(payload)
    kind = data.pop("event", None)
    cls = _EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown progress event kind: {kind!r}")
    fields = {field.name for field in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(
            f"unknown fields for {kind} event: {sorted(unknown)}"
        )
    return cls(**data)


class ProgressPrinter:
    """The CLI's observer: a live progress line on a TTY, quiet otherwise.

    On a TTY the line is redrawn in place with carriage returns and
    cleared when the run finishes (the caller prints its own summary).
    On a non-TTY stream nothing is written until :class:`RunFinished`,
    which produces a single ``progress:`` summary line.
    """

    def __init__(self, stream: Optional[TextIO] = None, label: str = "run") -> None:
        self._stream = stream
        self.label = label
        self._start = time.perf_counter()
        self._executed = 0
        self._cached = 0
        self._total = 0
        self._line_width = 0

    def __call__(self, event: ProgressEvent) -> None:
        """Fold one event into the live display."""
        if isinstance(event, CellStarted):
            self._total = event.total
            self._draw(f"cell {event.index + 1}/{event.total} {event.scenario}")
        elif isinstance(event, CellCompleted):
            self._executed += 1
            self._total = event.total
            self._draw(self._tally())
        elif isinstance(event, CellCached):
            self._cached += 1
            self._total = event.total
            self._draw(self._tally())
        elif isinstance(event, RunFinished):
            self._finish(event)

    # -- drawing ------------------------------------------------------------

    def _out(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def _elapsed(self) -> float:
        return time.perf_counter() - self._start

    def _tally(self) -> str:
        done = self._executed + self._cached
        return (
            f"{done}/{self._total} cells"
            f" ({self._executed} executed, {self._cached} cached)"
        )

    def _draw(self, detail: str) -> None:
        stream = self._out()
        if not stream.isatty():
            return
        line = f"{self.label}: {detail} [{self._elapsed():.1f}s]"
        padding = " " * max(0, self._line_width - len(line))
        stream.write("\r" + line + padding)
        stream.flush()
        self._line_width = len(line)

    def _finish(self, event: RunFinished) -> None:
        stream = self._out()
        if stream.isatty():
            stream.write("\r" + " " * self._line_width + "\r")
        else:
            stream.write(
                f"progress: {self.label} finished — {event.cells} cell(s),"
                f" {event.executed} executed, {event.cached} cached"
                f" in {event.seconds:.2f}s\n"
            )
        stream.flush()
        self._line_width = 0
