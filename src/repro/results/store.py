"""An append-only on-disk store of run records, sharded by scenario.

Layout::

    <store>/
        manifest.json           # shard index keyed by scenario_key hash
        shards/<shard_id>.jsonl # one shard per scenario_key, append-only

Each shard holds every repetition of one scenario (one
:meth:`~repro.scenarios.spec.ScenarioSpec.scenario_key`).  The manifest keeps
per-shard metadata — the scenario key itself plus the algorithm / adversary /
problem names and the repetition count — so queries can skip shards without
opening them.

Writes are idempotent: a record's identity is ``(scenario_key, repetition)``,
and re-adding an identity that is already present is a no-op.  That makes
merging the outputs of parallel workers (or re-running the same sweep) safe:
the store converges to the same contents regardless of how many times and in
which order the same records arrive.

``add(..., replace=True)`` upgrades an existing identity instead of
skipping it: the new record is appended and reads take the **last**
occurrence per repetition (last-wins), which is how the incremental
runner (:mod:`repro.api`) refreshes records written under an older schema
without breaking the append-only layout.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

try:  # Advisory multi-writer locking; absent on non-POSIX platforms.
    import fcntl
except ImportError:  # pragma: no cover - windows
    fcntl = None  # type: ignore[assignment]

from repro.results.records import RunRecord, coerce_record, iter_records
from repro.utils.validation import ConfigurationError

_MANIFEST_NAME = "manifest.json"
_SHARD_DIR = "shards"
_LOCK_NAME = ".lock"
_MANIFEST_VERSION = 1


def shard_id_for_key(scenario_key: str) -> str:
    """The stable shard identifier (hex digest prefix) of a scenario key."""
    return hashlib.sha256(scenario_key.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class StoreAppendEvent:
    """One shard append, as delivered to registered store listeners.

    Emitted under the store's writer lock immediately after the shard file
    grows, so a listener sees the append atomically with respect to other
    writers.  ``before``/``after`` are ``(mtime_ns, size_bytes)`` watermarks
    of the shard file around the append (``before`` is ``None`` for a brand
    new shard) — derived indexes compare ``before`` against their recorded
    watermark to decide whether they may fold ``records`` in directly or
    must re-read the shard.
    """

    shard_id: str
    scenario_key: str
    records: Tuple[RunRecord, ...]
    before: Optional[Tuple[int, int]]
    after: Tuple[int, int]


#: A store append listener (see :meth:`RunStore.add_listener`).
StoreListener = Callable[[StoreAppendEvent], None]


class RunStore:
    """A directory of JSONL shards plus a manifest, with dedup on ingest."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]):
        self._path = Path(path)
        self._manifest_path = self._path / _MANIFEST_NAME
        self._shard_dir = self._path / _SHARD_DIR
        if self._path.exists() and not self._path.is_dir():
            raise ConfigurationError(f"store path {self._path} exists and is not a directory")
        self._path.mkdir(parents=True, exist_ok=True)
        self._shard_dir.mkdir(exist_ok=True)
        self._manifest = self._load_manifest()
        # Per-shard repetition sets already seen, filled lazily from the
        # shard files; assumes this instance is the only writer while open.
        self._known: Dict[str, set] = {}
        # Per-shard latest JSON line per repetition, kept in sync by this
        # writer; populated lazily on the first replace-mode add to a shard
        # so upgrades do not re-read the shard on every call.
        self._latest_lines: Dict[str, Dict[int, str]] = {}
        # True when in-memory manifest changes have not been saved to disk
        # (add(..., save_manifest=False)); flush() persists them.
        self._manifest_dirty = False
        # Append listeners (e.g. the warehouse index keeping itself warm);
        # notified under the writer lock right after each shard append.
        self._listeners: List[StoreListener] = []
        self._recover_orphan_shards()

    # -- manifest ----------------------------------------------------------

    @property
    def path(self) -> Path:
        """The store's root directory."""
        return self._path

    def _load_manifest(self) -> Dict[str, Any]:
        if not self._manifest_path.exists():
            return {"version": _MANIFEST_VERSION, "shards": {}}
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"unreadable store manifest {self._manifest_path}: {error}"
            ) from error
        version = manifest.get("version")
        if version != _MANIFEST_VERSION:
            raise ConfigurationError(
                f"store manifest {self._manifest_path} has version {version!r}; "
                f"this build reads version {_MANIFEST_VERSION}"
            )
        if not isinstance(manifest.get("shards"), dict):
            raise ConfigurationError(
                f"store manifest {self._manifest_path} is missing its shard index"
            )
        return manifest

    @contextlib.contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Advisory exclusive lock serialising writers across processes.

        Concurrent ``repro sweep --store`` runs may append to the same
        store; the lock keeps shard appends and the manifest replace from
        interleaving mid-write.  Best effort: where ``fcntl`` is
        unavailable the store falls back to unlocked writes (single-writer
        semantics, as before).
        """
        if fcntl is None:
            yield
            return
        with open(self._path / _LOCK_NAME, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _save_manifest(self) -> None:
        # Write-then-rename so a crash mid-write never corrupts the index.
        # The temporary name carries the pid so concurrent writers never
        # stage into (and replace from) the same file.
        temporary = self._manifest_path.with_suffix(f".json.{os.getpid()}.tmp")
        with self._write_lock():
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(self._manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(temporary, self._manifest_path)

    def _shard_path(self, shard_id: str) -> Path:
        return self._shard_dir / f"{shard_id}.jsonl"

    def _recover_orphan_shards(self) -> None:
        """Re-index shard files a crash left out of the manifest.

        Shard appends land before the manifest save, so a crash in between
        leaves a complete shard with no (or a stale) index entry.  Recovery
        rebuilds those entries from the shard contents, making the data
        visible again and keeping dedup exact.
        """
        recovered = False
        for path in sorted(self._shard_dir.glob("*.jsonl")):
            shard_id = path.stem
            if shard_id in self._manifest["shards"]:
                continue
            records = list(self._iter_shard(shard_id))
            if not records:
                continue
            self._known[shard_id] = {record.repetition for record in records}
            self._manifest["shards"][shard_id] = self._shard_entry(records[0], shard_id)
            recovered = True
        if recovered:
            self._save_manifest()

    def _shard_entry(self, sample: RunRecord, shard_id: str) -> Dict[str, Any]:
        return {
            "scenario_key": sample.scenario_key(),
            "scenario": sample.scenario,
            "algorithm": sample.algorithm,
            "adversary": sample.adversary,
            "problem": sample.problem,
            "count": len(self._known[shard_id]),
        }

    # -- listeners ---------------------------------------------------------

    def add_listener(self, listener: StoreListener) -> None:
        """Register a callback for every shard append this writer performs.

        The callback runs synchronously under the store's writer lock (so
        it observes the append atomically w.r.t. other processes) and must
        not write to this store.  Registering the same callable twice is a
        no-op.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: StoreListener) -> None:
        """Deregister a callback registered with :meth:`add_listener`."""
        with contextlib.suppress(ValueError):
            self._listeners.remove(listener)

    # -- ingest ------------------------------------------------------------

    def add(
        self,
        records: Iterable[Union[RunRecord, Mapping[str, Any]]],
        *,
        replace: bool = False,
        save_manifest: bool = True,
    ) -> Tuple[int, int]:
        """Append new records, skipping known identities.

        Returns ``(added, skipped)``.  Accepts both :class:`RunRecord`
        objects and the plain dictionaries sweeps emit.
        With ``replace=True`` a record whose identity is already present
        but whose **content differs** is appended anyway and supersedes
        the stored one (last-wins on read); identical re-adds still skip.

        ``save_manifest=False`` defers the manifest write (call
        :meth:`flush` when done) so a stream of many small adds does not
        rewrite the index per record.  The shard appends themselves are
        always immediate, and a crash before the flush only leaves the
        index behind the shards — the same state an interrupted batched
        add can leave, which reopening repairs (orphan shards re-indexed,
        stale counts refreshed on the next add)."""
        by_shard: Dict[str, List[RunRecord]] = {}
        keys: Dict[str, str] = {}
        for raw in records:
            record = coerce_record(raw)
            key = record.scenario_key()
            shard_id = shard_id_for_key(key)
            existing_key = keys.setdefault(shard_id, key)
            if existing_key != key:
                raise ConfigurationError(
                    f"scenario-key hash collision in shard {shard_id}: "
                    f"{existing_key!r} vs {key!r}"
                )
            by_shard.setdefault(shard_id, []).append(record)
        added = skipped = 0
        manifest_changed = False
        for shard_id in sorted(by_shard):
            shard_added, shard_skipped, shard_changed = self._append_to_shard(
                shard_id, keys[shard_id], by_shard[shard_id], replace=replace
            )
            added += shard_added
            skipped += shard_skipped
            manifest_changed = manifest_changed or shard_changed
        if manifest_changed:
            if save_manifest:
                self._save_manifest()
                self._manifest_dirty = False
            else:
                self._manifest_dirty = True
        return added, skipped

    def flush(self) -> None:
        """Persist a manifest deferred by ``add(..., save_manifest=False)``."""
        if self._manifest_dirty:
            self._save_manifest()
            self._manifest_dirty = False

    def _append_to_shard(
        self,
        shard_id: str,
        scenario_key: str,
        records: List[RunRecord],
        *,
        replace: bool = False,
    ) -> Tuple[int, int, bool]:
        entry = self._manifest["shards"].get(shard_id)
        if entry is not None and entry.get("scenario_key") != scenario_key:
            raise ConfigurationError(
                f"shard {shard_id} already holds a different scenario key"
            )
        # Dedup against the shard file itself, not the manifest: a crash
        # between shard append and manifest save must not allow duplicates.
        known = self._known.get(shard_id)
        if known is None:
            known = {record.repetition for record in self._iter_shard(shard_id)}
            self._known[shard_id] = known
        fresh: List[RunRecord] = []
        for record in sorted(records, key=lambda record: record.repetition):
            if record.repetition in known:
                if not replace:
                    continue
                current = self._latest_lines.get(shard_id)
                if current is None:
                    # One shard read, then kept in sync by this writer.
                    current = {
                        stored.repetition: stored.to_json_line()
                        for stored in self._latest_records(shard_id)
                    }
                    self._latest_lines[shard_id] = current
                if current.get(record.repetition) == record.to_json_line():
                    continue  # identical content: a replace is still idempotent
                current[record.repetition] = record.to_json_line()
                fresh.append(record)
                continue
            known.add(record.repetition)
            fresh.append(record)
        skipped = len(records) - len(fresh)
        if fresh:
            path = self._shard_path(shard_id)
            with self._write_lock():
                before: Optional[Tuple[int, int]] = None
                if self._listeners and path.exists():
                    stat = path.stat()
                    before = (stat.st_mtime_ns, stat.st_size)
                with open(path, "a", encoding="utf-8") as handle:
                    for record in fresh:
                        handle.write(record.to_json_line() + "\n")
                if self._listeners:
                    stat = path.stat()
                    event = StoreAppendEvent(
                        shard_id=shard_id,
                        scenario_key=scenario_key,
                        records=tuple(fresh),
                        before=before,
                        after=(stat.st_mtime_ns, stat.st_size),
                    )
                    for listener in list(self._listeners):
                        listener(event)
            cache = self._latest_lines.get(shard_id)
            if cache is not None:
                for record in fresh:
                    cache[record.repetition] = record.to_json_line()
        # Refresh the index entry even without new records: a previous crash
        # may have left its count behind the shard contents.
        new_entry = self._shard_entry(records[0], shard_id)
        changed = new_entry != entry
        if changed:
            self._manifest["shards"][shard_id] = new_entry
        return len(fresh), skipped, changed

    def ingest_jsonl(
        self, path: Union[str, "os.PathLike[str]"], *, on_error: str = "raise"
    ) -> Tuple[int, int]:
        """Merge a runner-produced JSONL file into the store."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.add(iter_records(handle, source=str(path), on_error=on_error))

    def merge(self, other: Union["RunStore", str, "os.PathLike[str]"]) -> Tuple[int, int]:
        """Merge another store (e.g. a parallel worker's output directory)."""
        if not isinstance(other, RunStore):
            other = RunStore(other)
        return self.add(other.records())

    # -- queries -----------------------------------------------------------

    def scenario_keys(self) -> List[str]:
        """All scenario keys in the store, sorted."""
        return sorted(
            entry["scenario_key"] for entry in self._manifest["shards"].values()
        )

    def records_for_key(self, scenario_key: str) -> List[RunRecord]:
        """Every stored record of one scenario, sorted by repetition.

        The lookup goes straight to the scenario's shard via the manifest,
        so planning an incremental run over a large store only opens the
        shards it actually needs.
        """
        shard_id = shard_id_for_key(scenario_key)
        entry = self._manifest["shards"].get(shard_id)
        if entry is None or entry.get("scenario_key") != scenario_key:
            return []
        return self._latest_records(shard_id)

    def repetitions_present(
        self, scenario_key: str, *, schema_version: Optional[int] = None
    ) -> Dict[int, RunRecord]:
        """Map ``repetition -> stored record`` for one scenario.

        With ``schema_version`` given, records written under a different
        schema are omitted — they do not satisfy an incremental-run cell
        and must be re-executed (see :meth:`repro.api.Experiment.plan`).
        """
        return {
            record.repetition: record
            for record in self.records_for_key(scenario_key)
            if schema_version is None or record.schema_version == schema_version
        }

    def __len__(self) -> int:
        return sum(entry.get("count", 0) for entry in self._manifest["shards"].values())

    def _iter_shard(self, shard_id: str) -> Iterator[RunRecord]:
        path = self._shard_path(shard_id)
        if not path.exists():
            return
        with open(path, "r", encoding="utf-8") as handle:
            yield from iter_records(handle, source=str(path))

    def _latest_records(self, shard_id: str) -> List[RunRecord]:
        """One record per repetition — the last occurrence wins.

        A shard normally holds each repetition once; ``add(replace=True)``
        appends superseding versions, and this is the canonical read that
        resolves them.
        """
        latest: Dict[int, RunRecord] = {}
        for record in self._iter_shard(shard_id):
            latest[record.repetition] = record
        return [latest[repetition] for repetition in sorted(latest)]

    def records(self) -> List[RunRecord]:
        """Every record, in deterministic (scenario_key, repetition) order."""
        return self.query()

    def query(
        self,
        *,
        algorithm: Optional[str] = None,
        adversary: Optional[str] = None,
        problem: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
    ) -> List[RunRecord]:
        """Records filtered by component names and/or axis values.

        ``where`` maps group-by axes (see :meth:`RunRecord.axis_value`) to
        required values, e.g. ``{"problem.num_nodes": 16, "seed": 0}``.
        The result is sorted by ``(scenario_key, repetition)``, so query
        output is independent of ingestion order.
        """
        shard_ids = []
        for shard_id, entry in self._manifest["shards"].items():
            if algorithm is not None and entry.get("algorithm") != algorithm:
                continue
            if adversary is not None and entry.get("adversary") != adversary:
                continue
            if problem is not None and entry.get("problem") != problem:
                continue
            shard_ids.append((entry["scenario_key"], shard_id))
        results: List[RunRecord] = []
        for _, shard_id in sorted(shard_ids):
            for record in self._latest_records(shard_id):
                if where and any(
                    record.axis_value(axis) != value for axis, value in where.items()
                ):
                    continue
                results.append(record)
        results.sort(key=lambda record: (record.scenario_key(), record.repetition))
        return results


def is_store_path(path: Union[str, "os.PathLike[str]"]) -> bool:
    """Whether ``path`` looks like a run-store directory."""
    path = Path(path)
    return path.is_dir() and (path / _MANIFEST_NAME).exists()


def open_source(
    path: Union[str, "os.PathLike[str]"]
) -> List[RunRecord]:
    """Load records from either a store directory or a JSONL file."""
    path = Path(path)
    if path.is_dir():
        if not is_store_path(path):
            raise ConfigurationError(
                f"{path} is a directory but has no {_MANIFEST_NAME}; "
                f"expected a run store or a JSONL file"
            )
        return RunStore(path).records()
    if not path.exists():
        raise ConfigurationError(f"no such records source: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_records(handle, source=str(path)))
