"""Per-layer spans for the traced benchmark run (``--trace 1``).

The benchmark does not change the program: it wraps the calls *into* each
layer in timing spans while a traced run is active and restores the
originals afterwards.  Spans nest (a span opened inside another records it
as its parent), so each layer's self time excludes the layers it calls.

Layers wrapped, by module:

* ``repro.api`` — ``Experiment.plan`` (grid expansion plus cache lookups),
  ``execute_group`` (one kernel pass over a same-spec repetition group)
  and ``record_from_result`` (result → record conversion);
* ``repro.results.store`` — ``RunStore.add`` (shard appends under flock);
* ``repro.warehouse`` — ``WarehouseIndex.sync``, ``WarehouseQuery.records``
  and ``cached_aggregate`` (the indexed group-by);
* ``repro.results.report`` — the report's aggregate tables, paper-bound
  fits and Table 1 regeneration.

The four kernel stages (commit/adversary/delivery/accounting) come from
the program's own stage timings, delivered on ``CellCompleted`` events.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module path, attribute path, span name) of every wrapped layer call.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "Experiment.plan", "plan"),
    ("repro.api", "execute_group", "kernel"),
    ("repro.api", "record_from_result", "record_build"),
    ("repro.results.store", "RunStore.add", "store_append"),
    ("repro.warehouse.index", "WarehouseIndex.sync", "index_sync"),
    ("repro.warehouse.query", "WarehouseQuery.records", "index_read"),
    ("repro.warehouse.incremental", "cached_aggregate", "index_aggregate"),
    ("repro.results.report", "render_aggregates", "report_aggregates"),
    ("repro.results.report", "compare_to_bounds", "report_bounds"),
    ("repro.results.report", "bound_ratio_rows", "report_bounds"),
    ("repro.results.report", "render_table1_vs_measured", "report_table1"),
)

#: Kernel stages reported by the program's own per-stage timings.
STAGES = ("commit", "adversary", "delivery", "accounting")


class Span:
    __slots__ = ("name", "phase", "parent", "start", "end", "children")

    def __init__(self, name: str, phase: str, parent: Optional[int], start: float):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.start = start
        self.end = start
        self.children = 0.0

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start) - self.children


class LayerTracer:
    """Records spans around the wrapped layer calls while installed."""

    def __init__(self) -> None:
        self.phase = ""
        self.spans: List[Span] = []
        self.stage_seconds: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.phase, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].children += span.end - span.start

        return traced

    def install(self) -> None:
        for module_name, attribute, name in WRAPPED:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def observe(self, event: Any) -> None:
        """Progress observer summing the kernel's per-stage seconds."""
        for stage, seconds in (getattr(event, "stage_seconds", None) or {}).items():
            self.stage_seconds[stage] += seconds

    # -- per-pass summaries ------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.stage_seconds = defaultdict(float)

    def self_seconds(self) -> Dict[Tuple[str, str], float]:
        """Self time per ``(phase, span name)`` over the recorded spans."""
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for span in self.spans:
            totals[(span.phase, span.name)] += span.self_seconds
        return totals

    def count(self, name: str, phase: str) -> int:
        """How many ``name`` spans opened during ``phase``."""
        return sum(1 for span in self.spans if span.name == name and span.phase == phase)

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": span.parent,
                            "name": span.name,
                            "phase": span.phase,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "self": span.self_seconds,
                        }
                    )
                    + "\n"
                )
