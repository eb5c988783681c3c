"""repro.warehouse — a columnar SQL layer over the JSONL run store.

The JSONL shards of :class:`repro.results.store.RunStore` stay the single
source of truth; this package derives a rebuildable sqlite index from
them (:mod:`~repro.warehouse.index`), answers store-shaped queries from
it (:mod:`~repro.warehouse.query`), aggregates the indexed records with
the shard-scan path's own :func:`~repro.results.aggregate.aggregate`
(:mod:`~repro.warehouse.incremental`), and renders consolidated
cross-experiment reports (:mod:`~repro.warehouse.consolidated`).
Exposed on the command line as ``repro warehouse [sync|rebuild|query|report]``.
"""

from repro.warehouse.consolidated import (
    consolidated_overview_rows,
    render_consolidated_report,
)
from repro.warehouse.incremental import cached_aggregate
from repro.warehouse.index import (
    INDEX_FILENAME,
    INDEX_SCHEMA_VERSION,
    SyncStats,
    WarehouseIndex,
    open_index,
    rebuild_index,
    sqlite_available,
)
from repro.warehouse.query import WarehouseQuery

__all__ = [
    "INDEX_FILENAME",
    "INDEX_SCHEMA_VERSION",
    "SyncStats",
    "WarehouseIndex",
    "WarehouseQuery",
    "cached_aggregate",
    "consolidated_overview_rows",
    "open_index",
    "rebuild_index",
    "render_consolidated_report",
    "sqlite_available",
]
