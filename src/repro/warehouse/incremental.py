"""Incrementally maintained group-by aggregation over the warehouse index.

The shard-scan path (:func:`repro.results.aggregate.aggregate`) regroups
every record on every call.  This module persists per-group state in the
index — ``runs`` / ``completed`` plus, per metric, ``count`` / ``sum`` /
``sum-of-squares`` moments and the **sorted value list** — and folds only
rows appended since the last call (tracked by a sqlite ``rowid``
watermark) into that state.  Rendering then runs the row recipe of
:func:`~repro.results.aggregate.aggregate`
(:func:`~repro.results.aggregate.summary_row`) over the cached sorted
values, in the same group order.
The output is **byte-identical** to a cold shard scan — the PR-2
invariant — while a steady-state call touches only the handful of rows
that are actually new.

The sorted value list (not just the moments) is what makes exactness
possible: medians and percentile bootstraps depend on the individual
values, and each resample mean is an exact integer sum of its draw divided
once, equal bit for bit to ``statistics.mean``.  The moments ride along as
cheap cross-checks and for future moment-only consumers.

Caches invalidate wholesale when the index's **mutation counter** moves —
any supersede/delete of an existing row (``add(replace=True)``, shard
truncation) bumps it, because folding can only ever *add* values.
"""

from __future__ import annotations

import json
from bisect import insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    DEFAULT_RESAMPLES,
    _group_sort_key,
    summary_row,
)
from repro.results.records import RunRecord
from repro.warehouse.index import WarehouseIndex

__all__ = ["cached_aggregate"]


def _encode_key(key: Tuple[Any, ...]) -> str:
    return json.dumps(list(key))


def _decode_key(encoded: str) -> Tuple[Any, ...]:
    return tuple(json.loads(encoded))


class _GroupState:
    """The in-memory image of one group's cached state."""

    __slots__ = ("runs", "all_completed", "values", "moments", "dirty")

    def __init__(self, runs: int = 0, all_completed: bool = True) -> None:
        self.runs = runs
        self.all_completed = all_completed
        #: metric -> sorted value list
        self.values: Dict[str, List[float]] = {}
        #: metric -> (count, total, total_sq)
        self.moments: Dict[str, Tuple[int, float, float]] = {}
        self.dirty = False


def _load_cache(
    index: WarehouseIndex, group_key_json: str, metrics: Sequence[str]
) -> Dict[Tuple[Any, ...], _GroupState]:
    conn = index.connection
    groups: Dict[Tuple[Any, ...], _GroupState] = {}
    for encoded, runs, all_completed in conn.execute(
        "SELECT group_key, runs, all_completed FROM group_cache_groups "
        "WHERE group_by = ?",
        (group_key_json,),
    ):
        groups[_decode_key(encoded)] = _GroupState(int(runs), bool(all_completed))
    for encoded, metric, count, total, total_sq, values_json in conn.execute(
        "SELECT group_key, metric, count, total, total_sq, values_json "
        "FROM group_cache_stats WHERE group_by = ?",
        (group_key_json,),
    ):
        state = groups.get(_decode_key(encoded))
        if state is None or metric not in metrics:
            continue
        state.values[metric] = json.loads(values_json)
        state.moments[metric] = (int(count), float(total), float(total_sq))
    return groups


def _fold(
    groups: Dict[Tuple[Any, ...], _GroupState],
    record: RunRecord,
    group_by: Sequence[str],
    metrics: Sequence[str],
) -> None:
    key = tuple(record.axis_value(axis) for axis in group_by)
    state = groups.get(key)
    if state is None:
        state = groups[key] = _GroupState()
        for metric in metrics:
            state.values[metric] = []
            state.moments[metric] = (0, 0.0, 0.0)
    state.runs += 1
    state.all_completed = state.all_completed and record.completed
    state.dirty = True
    for metric in metrics:
        value = record.metric_value(metric)
        insort(state.values[metric], value)
        count, total, total_sq = state.moments[metric]
        state.moments[metric] = (count + 1, total + value, total_sq + value * value)


def _persist(
    index: WarehouseIndex,
    group_key_json: str,
    metrics_json: str,
    groups: Dict[Tuple[Any, ...], _GroupState],
    watermark: int,
    mutation: int,
    *,
    full: bool,
) -> None:
    conn = index.connection
    with conn:
        if full:
            conn.execute(
                "DELETE FROM group_cache_groups WHERE group_by = ?", (group_key_json,)
            )
            conn.execute(
                "DELETE FROM group_cache_stats WHERE group_by = ?", (group_key_json,)
            )
            conn.execute(
                "DELETE FROM group_cache_rows WHERE group_by = ?", (group_key_json,)
            )
        for key, state in groups.items():
            if not (full or state.dirty):
                continue
            encoded = _encode_key(key)
            if not full:
                # The group's membership changed: every rendered row cached
                # for it (any confidence/resamples/metrics) is stale.
                conn.execute(
                    "DELETE FROM group_cache_rows "
                    "WHERE group_by = ? AND group_key = ?",
                    (group_key_json, encoded),
                )
            conn.execute(
                "INSERT OR REPLACE INTO group_cache_groups "
                "(group_by, group_key, runs, all_completed) VALUES (?, ?, ?, ?)",
                (group_key_json, encoded, state.runs, 1 if state.all_completed else 0),
            )
            for metric in state.values:
                count, total, total_sq = state.moments[metric]
                conn.execute(
                    "INSERT OR REPLACE INTO group_cache_stats "
                    "(group_by, group_key, metric, count, total, total_sq, "
                    "values_json) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        group_key_json,
                        encoded,
                        metric,
                        count,
                        total,
                        total_sq,
                        json.dumps(state.values[metric]),
                    ),
                )
        conn.execute(
            "INSERT OR REPLACE INTO group_cache_meta "
            "(group_by, metrics, row_watermark, mutation) VALUES (?, ?, ?, ?)",
            (group_key_json, metrics_json, watermark, mutation),
        )


def _serve_cached_rows(
    index: WarehouseIndex,
    group_key_json: str,
    confidence: float,
    resamples: int,
    metrics_json: str,
) -> Optional[List[Dict[str, Any]]]:
    """All groups' rendered rows straight from the row cache, in aggregate
    order — or ``None`` when any group lacks a cached row for this exact
    (confidence, resamples, metrics) combination."""
    conn = index.connection
    row_cache = {
        encoded: row_json
        for encoded, row_json in conn.execute(
            "SELECT group_key, row_json FROM group_cache_rows "
            "WHERE group_by = ? AND confidence = ? AND resamples = ? "
            "AND metrics = ?",
            (group_key_json, confidence, resamples, metrics_json),
        )
    }
    keys = [
        _decode_key(encoded)
        for (encoded,) in conn.execute(
            "SELECT group_key FROM group_cache_groups WHERE group_by = ?",
            (group_key_json,),
        )
    ]
    rows: List[Dict[str, Any]] = []
    for key in sorted(keys, key=_group_sort_key):
        cached = row_cache.get(_encode_key(key))
        if cached is None:
            return None
        rows.append(json.loads(cached))
    return rows


def cached_aggregate(
    index: WarehouseIndex,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
) -> List[Dict[str, Any]]:
    """Aggregate the indexed records, folding only rows the cache has not
    seen; byte-identical to the shard-scan :func:`aggregate`."""
    conn = index.connection
    group_key_json = json.dumps(list(group_by))
    metrics_json = json.dumps(sorted(metrics))
    mutation = index.mutation()
    meta = conn.execute(
        "SELECT metrics, row_watermark, mutation FROM group_cache_meta "
        "WHERE group_by = ?",
        (group_key_json,),
    ).fetchone()
    full_rebuild = (
        meta is None
        or int(meta[2]) != mutation
        or not set(metrics) <= set(json.loads(meta[0]))
    )
    if not full_rebuild:
        watermark = int(meta[1])
        has_new = conn.execute(
            "SELECT 1 FROM runs WHERE rowid > ? LIMIT 1", (watermark,)
        ).fetchone()
        if has_new is None:
            # Nothing changed since the cache was written: serve entirely
            # from the rendered-row cache if it covers every group — no
            # value lists loaded, no bootstrap run.
            served = _serve_cached_rows(
                index, group_key_json, confidence, resamples, metrics_json
            )
            if served is not None:
                return served
    if full_rebuild:
        groups: Dict[Tuple[Any, ...], _GroupState] = {}
        watermark = 0
        fold_metrics: Sequence[str] = list(metrics)
    else:
        # Fold every *cached* metric (a superset of the request), so stats
        # for metrics not asked about this call never go stale.
        fold_metrics = json.loads(meta[0])
        groups = _load_cache(index, group_key_json, fold_metrics)
        watermark = int(meta[1])
    new_watermark = watermark
    for rowid, line in conn.execute(
        "SELECT rowid, json FROM runs WHERE rowid > ? ORDER BY rowid", (watermark,)
    ):
        _fold(groups, RunRecord.from_dict(json.loads(line)), group_by, fold_metrics)
        new_watermark = max(new_watermark, int(rowid))
    if full_rebuild or new_watermark != watermark:
        _persist(
            index,
            group_key_json,
            metrics_json if full_rebuild else meta[0],
            groups,
            new_watermark,
            mutation,
            full=full_rebuild,
        )
    # Render exactly as repro.results.aggregate.aggregate does: same group
    # ordering, and its summary_row on the same sorted value lists.  Clean
    # groups serve their fully rendered row from the row cache — the
    # bootstrap (the dominant cost at scale) only runs for groups whose
    # membership actually changed this call.
    row_cache: Dict[str, str] = {
        encoded: row_json
        for encoded, row_json in conn.execute(
            "SELECT group_key, row_json FROM group_cache_rows "
            "WHERE group_by = ? AND confidence = ? AND resamples = ? "
            "AND metrics = ?",
            (group_key_json, confidence, resamples, metrics_json),
        )
    }
    rows: List[Dict[str, Any]] = []
    fresh_rows: List[Tuple[str, str]] = []
    for key in sorted(groups, key=_group_sort_key):
        state = groups[key]
        encoded = _encode_key(key)
        if not (full_rebuild or state.dirty):
            cached_row = row_cache.get(encoded)
            if cached_row is not None:
                rows.append(json.loads(cached_row))
                continue
        row = summary_row(
            group_by,
            key,
            state.runs,
            state.all_completed,
            metrics,
            state.values,
            confidence=confidence,
            resamples=resamples,
        )
        rows.append(row)
        fresh_rows.append((encoded, json.dumps(row)))
    if fresh_rows:
        with conn:
            for encoded, row_json in fresh_rows:
                conn.execute(
                    "INSERT OR REPLACE INTO group_cache_rows "
                    "(group_by, group_key, confidence, resamples, metrics, "
                    "row_json) VALUES (?, ?, ?, ?, ?, ?)",
                    (group_key_json, encoded, confidence, resamples,
                     metrics_json, row_json),
                )
    return rows
