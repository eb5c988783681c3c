"""A rebuildable sqlite index over the JSONL run store.

The :class:`~repro.results.store.RunStore`'s JSONL shards stay the single
source of truth; :class:`WarehouseIndex` maintains ``<store>/warehouse.sqlite``
as a derived, disposable view:

* one ``runs`` row per run record — scenario key, component names, the n/k/s
  dimensions, every metric column, the record schema version and the
  canonical JSON line (so records reconstruct exactly);
* a ``shards`` table of per-shard ``(mtime_ns, size_bytes)`` watermarks, so
  :meth:`WarehouseIndex.sync` re-reads only shards that actually changed
  (the store is append-only: any write grows the file);
* a ``meta`` table carrying the index schema version.

The index stores records and answers lookups (plan cache checks, counts,
percentiles, filtered record streams); every aggregation is
:func:`repro.results.aggregate.aggregate` over the records it returns.

:func:`rebuild_index` deletes the database and re-derives everything from
the shards — the recovery path for a corrupt or stale index, and the proof
that nothing lives only in sqlite.

A live :class:`~repro.results.store.RunStore` writer can :meth:`attach` the
index: every shard append then lands in sqlite in the same breath (under
the store's writer lock), keeping the index warm with zero re-reads.  An
:class:`~repro.api.Experiment` planned against a store that has an index
attaches it, so the cells its run persists are queryable at once.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

try:  # Gated: minimal python builds may omit the sqlite3 extension module.
    import sqlite3
except ImportError:  # pragma: no cover - exercised via sqlite_available()
    sqlite3 = None  # type: ignore[assignment]

try:  # Advisory locking shared with the store; absent on non-POSIX platforms.
    import fcntl
except ImportError:  # pragma: no cover - windows
    fcntl = None  # type: ignore[assignment]

from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.results.records import RunRecord, iter_records
from repro.results.store import RunStore, StoreAppendEvent
from repro.utils.validation import ConfigurationError

__all__ = [
    "INDEX_FILENAME",
    "INDEX_SCHEMA_VERSION",
    "SyncStats",
    "WarehouseIndex",
    "open_index",
    "rebuild_index",
    "sqlite_available",
]

logger = get_logger(__name__)

#: The index database file, inside the store directory it indexes.
INDEX_FILENAME = "warehouse.sqlite"

#: Bumped whenever the table layout changes; mismatching indexes must be
#: rebuilt (cheap — the JSONL shards hold everything).
INDEX_SCHEMA_VERSION = 2

_LOCK_NAME = ".lock"
_BUSY_TIMEOUT_MS = 5000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    shard_id     TEXT PRIMARY KEY,
    scenario_key TEXT NOT NULL,
    mtime_ns     INTEGER NOT NULL,
    size_bytes   INTEGER NOT NULL,
    line_count   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    scenario_key TEXT NOT NULL,
    repetition   INTEGER NOT NULL,
    shard_id     TEXT NOT NULL,
    scenario     TEXT NOT NULL,
    algorithm    TEXT NOT NULL,
    adversary    TEXT NOT NULL,
    problem      TEXT NOT NULL,
    n            INTEGER NOT NULL,
    k            INTEGER NOT NULL,
    s            INTEGER NOT NULL,
    seed         INTEGER NOT NULL,
    completed    INTEGER NOT NULL,
    rounds       INTEGER NOT NULL,
    total_messages INTEGER NOT NULL,
    amortized_messages REAL NOT NULL,
    topological_changes INTEGER NOT NULL,
    adversary_competitive REAL NOT NULL,
    amortized_adversary_competitive REAL NOT NULL,
    token_learnings INTEGER NOT NULL,
    schema_version INTEGER NOT NULL,
    max_rounds   INTEGER,
    json         TEXT NOT NULL,
    PRIMARY KEY (scenario_key, repetition)
);
CREATE INDEX IF NOT EXISTS runs_by_shard ON runs (shard_id);
CREATE INDEX IF NOT EXISTS runs_by_components ON runs (algorithm, adversary, problem);
"""

_RUN_COLUMNS = (
    "scenario_key", "repetition", "shard_id", "scenario", "algorithm",
    "adversary", "problem", "n", "k", "s", "seed", "completed", "rounds",
    "total_messages", "amortized_messages", "topological_changes",
    "adversary_competitive", "amortized_adversary_competitive",
    "token_learnings", "schema_version", "max_rounds", "json",
)

_INSERT_RUN = (
    f"INSERT OR REPLACE INTO runs ({', '.join(_RUN_COLUMNS)}) "
    f"VALUES ({', '.join('?' * len(_RUN_COLUMNS))})"
)


def sqlite_available() -> bool:
    """Whether this python build ships the ``sqlite3`` extension module."""
    return sqlite3 is not None


@dataclass
class SyncStats:
    """What one :meth:`WarehouseIndex.sync` actually did."""

    shards_read: int = 0
    shards_skipped: int = 0
    rows_added: int = 0
    rows_updated: int = 0
    rows_removed: int = 0
    seconds: float = 0.0

    def summary(self, store: Union[str, "os.PathLike[str]"]) -> str:
        """The one-line human rendering the CLI prints."""
        return (
            f"warehouse {store}: {self.shards_read} shard(s) read, "
            f"{self.shards_skipped} skipped via watermarks, "
            f"{self.rows_added} row(s) added in {self.seconds:.2f}s"
        )


def _run_row(record: RunRecord, shard_id: str) -> Tuple[Any, ...]:
    return (
        record.scenario_key(),
        record.repetition,
        shard_id,
        record.scenario,
        record.algorithm,
        record.adversary,
        record.problem,
        record.n,
        record.k,
        record.s,
        record.seed,
        1 if record.completed else 0,
        record.rounds,
        record.total_messages,
        record.amortized_messages,
        record.topological_changes,
        record.adversary_competitive,
        record.amortized_adversary_competitive,
        record.token_learnings,
        record.schema_version,
        record.spec.get("max_rounds"),
        record.to_json_line(),
    )


def _require_store(path: Path) -> None:
    """Refuse paths that are clearly not run stores (no silent mkdir)."""
    if not path.is_dir():
        raise ConfigurationError(f"{path} is not a run-store directory")
    if not (path / "manifest.json").exists() and not (path / "shards").is_dir():
        raise ConfigurationError(
            f"{path} does not look like a run store (no manifest.json or shards/)"
        )


class WarehouseIndex:
    """The sqlite index of one run store (see the module docstring)."""

    def __init__(
        self,
        store_path: Union[str, "os.PathLike[str]"],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if sqlite3 is None:
            raise ConfigurationError(
                "the warehouse index needs the stdlib sqlite3 module, which "
                "this python build does not provide"
            )
        self._store_path = Path(store_path)
        _require_store(self._store_path)
        self._db_path = self._store_path / INDEX_FILENAME
        self._metrics = metrics
        self._attached: Optional[RunStore] = None
        try:
            self._conn = sqlite3.connect(str(self._db_path))
            self._conn.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
            with self._conn:
                self._conn.executescript(_SCHEMA)
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'index_schema_version'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO meta (key, value) VALUES "
                        "('index_schema_version', ?)",
                        (str(INDEX_SCHEMA_VERSION),),
                    )
                elif row[0] != str(INDEX_SCHEMA_VERSION):
                    raise ConfigurationError(
                        f"warehouse index {self._db_path} has schema version "
                        f"{row[0]}, this build writes {INDEX_SCHEMA_VERSION}; "
                        f"run 'repro warehouse rebuild {self._store_path}'"
                    )
        except sqlite3.DatabaseError as error:
            raise ConfigurationError(
                f"warehouse index {self._db_path} is unreadable ({error}); "
                f"run 'repro warehouse rebuild {self._store_path}' to re-derive "
                f"it from the JSONL shards"
            ) from error

    # -- plumbing ----------------------------------------------------------

    @property
    def store_path(self) -> Path:
        """The indexed store's root directory."""
        return self._store_path

    @property
    def path(self) -> Path:
        """The sqlite database file."""
        return self._db_path

    @property
    def connection(self) -> "sqlite3.Connection":
        """The underlying connection (for the query layer)."""
        return self._conn

    @classmethod
    def exists(cls, store_path: Union[str, "os.PathLike[str]"]) -> bool:
        """Whether ``store_path`` carries an index file."""
        return (Path(store_path) / INDEX_FILENAME).exists()

    def close(self) -> None:
        """Detach from any store and close the connection."""
        self.detach()
        if self._conn is not None:
            self._conn.close()

    def __enter__(self) -> "WarehouseIndex":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @contextlib.contextmanager
    def _store_lock(self) -> Iterator[None]:
        """The store's advisory writer lock, so shard reads never race an
        in-flight append (best effort where fcntl is unavailable)."""
        if fcntl is None:
            yield
            return
        with open(self._store_path / _LOCK_NAME, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def count(self) -> int:
        """Total indexed run records."""
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def query(self) -> "Any":
        """The typed query API over this index (lazy import avoids a cycle)."""
        from repro.warehouse.query import WarehouseQuery

        return WarehouseQuery(self)

    # -- sync --------------------------------------------------------------

    def sync(self) -> SyncStats:
        """Fold shard changes into the index; watermark-skip the rest.

        Each shard is stat'd under the store's writer lock; a shard whose
        ``(mtime_ns, size_bytes)`` matches the recorded watermark is not
        opened at all.  Changed shards are re-read with last-wins
        semantics, then diffed against the indexed rows: fresh repetitions
        insert, superseded ones update, and rows whose shard file vanished
        are dropped.
        """
        started = time.perf_counter()
        stats = SyncStats()
        shard_dir = self._store_path / "shards"
        seen: List[str] = []
        try:
            paths = sorted(shard_dir.glob("*.jsonl")) if shard_dir.is_dir() else []
            for path in paths:
                shard_id = path.stem
                seen.append(shard_id)
                with self._store_lock():
                    stat = path.stat()
                    watermark = (stat.st_mtime_ns, stat.st_size)
                    row = self._conn.execute(
                        "SELECT mtime_ns, size_bytes FROM shards WHERE shard_id = ?",
                        (shard_id,),
                    ).fetchone()
                    if row is not None and (row[0], row[1]) == watermark:
                        stats.shards_skipped += 1
                        continue
                    latest, line_count = self._read_shard(path)
                stats.shards_read += 1
                if not latest:
                    continue
                scenario_key = next(iter(latest.values())).scenario_key()
                with self._conn:
                    existing = {
                        repetition: line
                        for repetition, line in self._conn.execute(
                            "SELECT repetition, json FROM runs WHERE shard_id = ?",
                            (shard_id,),
                        )
                    }
                    for repetition in sorted(latest):
                        record = latest[repetition]
                        line = record.to_json_line()
                        stored = existing.get(repetition)
                        if stored == line:
                            continue
                        self._conn.execute(_INSERT_RUN, _run_row(record, shard_id))
                        if stored is None:
                            stats.rows_added += 1
                        else:
                            stats.rows_updated += 1
                    for repetition in set(existing) - set(latest):
                        self._conn.execute(
                            "DELETE FROM runs WHERE shard_id = ? AND repetition = ?",
                            (shard_id, repetition),
                        )
                        stats.rows_removed += 1
                    self._conn.execute(
                        "INSERT OR REPLACE INTO shards "
                        "(shard_id, scenario_key, mtime_ns, size_bytes, line_count) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (shard_id, scenario_key, watermark[0], watermark[1], line_count),
                    )
            with self._conn:
                for (shard_id,) in self._conn.execute(
                    "SELECT shard_id FROM shards"
                ).fetchall():
                    if shard_id in seen:
                        continue
                    removed = self._conn.execute(
                        "DELETE FROM runs WHERE shard_id = ?", (shard_id,)
                    ).rowcount
                    self._conn.execute(
                        "DELETE FROM shards WHERE shard_id = ?", (shard_id,)
                    )
                    stats.rows_removed += max(removed, 0)
        except sqlite3.DatabaseError as error:
            raise ConfigurationError(
                f"warehouse index {self._db_path} failed during sync ({error}); "
                f"run 'repro warehouse rebuild {self._store_path}'"
            ) from error
        stats.seconds = time.perf_counter() - started
        self._record_sync_metrics(stats)
        return stats

    @staticmethod
    def _read_shard(path: Path) -> Tuple[Dict[int, RunRecord], int]:
        """Last-wins records of one shard plus its record-line count."""
        latest: Dict[int, RunRecord] = {}
        lines = 0
        with open(path, "r", encoding="utf-8") as handle:
            for record in iter_records(handle, source=str(path)):
                latest[record.repetition] = record
                lines += 1
        return latest, lines

    def _record_sync_metrics(self, stats: SyncStats) -> None:
        if self._metrics is None:
            return
        self._metrics.counter("warehouse.sync.calls").inc()
        self._metrics.counter("warehouse.sync.shards_read").inc(stats.shards_read)
        self._metrics.counter("warehouse.sync.shards_skipped").inc(stats.shards_skipped)
        self._metrics.counter("warehouse.sync.rows_added").inc(stats.rows_added)
        self._metrics.histogram("warehouse.sync.seconds").observe(stats.seconds)

    # -- live writer attachment -------------------------------------------

    def attach(self, store: RunStore) -> None:
        """Mirror every append ``store`` performs into the index, eagerly.

        The listener runs under the store's writer lock.  When the index's
        shard watermark matches the pre-append state it folds the fresh
        records in directly and advances the watermark — a no-op ``sync``
        afterwards re-reads nothing.  When the index was behind (or sqlite
        errors out) the shard watermark is dropped instead, so the next
        ``sync`` re-reads that shard and reconciles.
        """
        if self._attached is store:
            return
        self.detach()
        store.add_listener(self._on_store_append)
        self._attached = store

    def detach(self) -> None:
        """Stop mirroring the attached store's appends."""
        if self._attached is not None:
            self._attached.remove_listener(self._on_store_append)
            self._attached = None

    def _on_store_append(self, event: StoreAppendEvent) -> None:
        try:
            with self._conn:
                row = self._conn.execute(
                    "SELECT mtime_ns, size_bytes, line_count FROM shards "
                    "WHERE shard_id = ?",
                    (event.shard_id,),
                ).fetchone()
                current = (
                    (row is None and event.before is None)
                    or (row is not None and (row[0], row[1]) == event.before)
                )
                for record in event.records:
                    self._conn.execute(_INSERT_RUN, _run_row(record, event.shard_id))
                if current:
                    line_count = (row[2] if row is not None else 0) + len(event.records)
                    self._conn.execute(
                        "INSERT OR REPLACE INTO shards "
                        "(shard_id, scenario_key, mtime_ns, size_bytes, line_count) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (
                            event.shard_id,
                            event.scenario_key,
                            event.after[0],
                            event.after[1],
                            line_count,
                        ),
                    )
                else:
                    # The index missed earlier lines of this shard: drop the
                    # watermark so the next sync re-reads and reconciles.
                    self._conn.execute(
                        "DELETE FROM shards WHERE shard_id = ?", (event.shard_id,)
                    )
        except sqlite3.Error as error:
            logger.warning(
                "warehouse index %s could not mirror a store append (%s); "
                "detaching — run 'repro warehouse sync' to catch up",
                self._db_path,
                error,
            )
            self.detach()


def open_index(
    store_path: Union[str, "os.PathLike[str]"],
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[WarehouseIndex]:
    """Open an **existing** index, or ``None`` for transparent fallback.

    Returns ``None`` when sqlite is unavailable, when the store has no
    index file, or when the index is unreadable (logged as a warning) —
    callers then fall back to plain shard scans.
    """
    if sqlite3 is None or not WarehouseIndex.exists(store_path):
        return None
    try:
        return WarehouseIndex(store_path, metrics=metrics)
    except ConfigurationError as error:
        logger.warning("%s; falling back to shard scans", error)
        return None


def rebuild_index(
    store_path: Union[str, "os.PathLike[str]"],
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[WarehouseIndex, SyncStats]:
    """Delete the index database and re-derive it from the JSONL shards.

    The recovery path for corruption and schema bumps: nothing the index
    holds is authoritative, so dropping it is always safe.
    """
    if sqlite3 is None:
        raise ConfigurationError(
            "the warehouse index needs the stdlib sqlite3 module, which "
            "this python build does not provide"
        )
    store_path = Path(store_path)
    _require_store(store_path)
    db_path = store_path / INDEX_FILENAME
    for suffix in ("", "-journal", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"{db_path}{suffix}")
    index = WarehouseIndex(store_path, metrics=metrics)
    stats = index.sync()
    return index, stats
