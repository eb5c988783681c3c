"""The results warehouse: run records → store → aggregates → paper verdicts.

This package is the back half of the spec-in/records-out architecture.
Sweeps (:class:`~repro.api.RunSet`, ``repro sweep``) emit flat JSONL
records; here they become first-class:

* **records** (:mod:`repro.results.records`) — the typed, schema-versioned
  :class:`RunRecord` with tolerant streaming JSONL reads;
* **store** (:mod:`repro.results.store`) — :class:`RunStore`, an append-only
  directory of per-scenario shards with idempotent dedup, merge of parallel
  worker outputs and filtered queries;
* **aggregate** (:mod:`repro.results.aggregate`) — deterministic group-by
  summaries (mean/median/stddev/min/max + bootstrap confidence intervals);
* **compare** (:mod:`repro.results.compare`) — log-log slope fits of the
  measured scaling joined against :mod:`repro.analysis.bounds`, with
  within-bound verdicts and an extension hook for custom bounds;
* **report** (:mod:`repro.results.report`) — markdown / CSV / JSON tables
  and the full paper-vs-measured report, including Table 1.

Quickstart::

    from repro.results import RunStore, aggregate, compare_to_bounds

    store = RunStore("results-store")
    store.ingest_jsonl("results.jsonl")      # idempotent: re-ingest is a no-op
    rows = aggregate(store.records(), group_by=("algorithm", "n"))
    verdicts = compare_to_bounds(store.records())

The same pipeline from the shell::

    python -m repro sweep ... --json | python -m repro analyze --bounds
    python -m repro report results-store/ --output report.md
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

# Imported eagerly: the function ``aggregate`` shares its name with its
# submodule, and importing ``repro.results.aggregate`` first would bind the
# module to the package attribute that a lazy name resolves through.
from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    aggregate,
    aggregate_columns,
    bootstrap_ci,
    group_records,
)

if TYPE_CHECKING:
    from repro.results.records import (
        SCHEMA_VERSION,
        RecordValidationError,
        RunRecord,
        dump_records,
        iter_records,
        load_records,
    )
    from repro.results.store import RunStore, open_source
    from repro.results.compare import (
        BoundSpec,
        bound_for_algorithm,
        bound_ratio_rows,
        compare_to_bounds,
        fit_scaling_exponent,
        measured_series,
        register_bound,
        registered_bounds,
    )
    from repro.results.report import (
        render_aggregates,
        render_comparison,
        render_markdown_table,
        render_report,
        render_table,
        render_table1_vs_measured,
        rows_to_table,
    )

__all__ = [
    "SCHEMA_VERSION",
    "RecordValidationError",
    "RunRecord",
    "dump_records",
    "iter_records",
    "load_records",
    "RunStore",
    "open_source",
    "DEFAULT_GROUP_BY",
    "DEFAULT_METRICS",
    "aggregate",
    "aggregate_columns",
    "bootstrap_ci",
    "group_records",
    "BoundSpec",
    "bound_for_algorithm",
    "bound_ratio_rows",
    "compare_to_bounds",
    "fit_scaling_exponent",
    "measured_series",
    "register_bound",
    "registered_bounds",
    "render_aggregates",
    "render_comparison",
    "render_markdown_table",
    "render_report",
    "render_table",
    "render_table1_vs_measured",
    "rows_to_table",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.results.records": (
            "SCHEMA_VERSION",
            "RecordValidationError",
            "RunRecord",
            "dump_records",
            "iter_records",
            "load_records",
        ),
        "repro.results.store": ("RunStore", "open_source"),
        "repro.results.compare": (
            "BoundSpec",
            "bound_for_algorithm",
            "bound_ratio_rows",
            "compare_to_bounds",
            "fit_scaling_exponent",
            "measured_series",
            "register_bound",
            "registered_bounds",
        ),
        "repro.results.report": (
            "render_aggregates",
            "render_comparison",
            "render_markdown_table",
            "render_report",
            "render_table",
            "render_table1_vs_measured",
            "rows_to_table",
        ),
    },
)
