"""Typed queries over the warehouse index.

:class:`WarehouseQuery` answers ``repro warehouse query`` and ``report``
from sqlite: record counts and metric percentiles under component-name
filters, and filtered record lists with the semantics of
:meth:`RunStore.query <repro.results.store.RunStore.query>`.  Records
reconstruct from the canonical JSON column, so every result is a full
:class:`~repro.results.records.RunRecord`, bit-identical to what a shard
scan would have produced, and in the same ``(scenario_key, repetition)``
order.

Aggregation (:meth:`WarehouseQuery.aggregate`) is
:func:`repro.results.aggregate.aggregate` over these records, the same
function the shard-scan path calls.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    DEFAULT_RESAMPLES,
)
from repro.results.records import _METRIC_FIELDS, RunRecord
from repro.utils.validation import ConfigurationError
from repro.warehouse.index import WarehouseIndex

__all__ = ["WarehouseQuery"]

#: Component-name filters answered by indexed SQL columns.
_COLUMN_FILTERS = ("algorithm", "adversary", "problem")


def _record_from_row(line: str) -> RunRecord:
    return RunRecord.from_dict(json.loads(line))


class WarehouseQuery:
    """Store-shaped reads answered by the sqlite index."""

    def __init__(self, index: WarehouseIndex) -> None:
        self._index = index
        self._conn = index.connection

    @property
    def index(self) -> WarehouseIndex:
        return self._index

    # -- lookups ------------------------------------------------------------

    def count(
        self,
        *,
        algorithm: Optional[str] = None,
        adversary: Optional[str] = None,
        problem: Optional[str] = None,
    ) -> int:
        """Indexed record count under the component-name filters."""
        sql, params = self._filter_clause(algorithm, adversary, problem)
        return int(
            self._conn.execute(f"SELECT COUNT(*) FROM runs{sql}", params).fetchone()[0]
        )

    def records(
        self,
        *,
        algorithm: Optional[str] = None,
        adversary: Optional[str] = None,
        problem: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
    ) -> List[RunRecord]:
        """Filtered records, matching :meth:`RunStore.query` semantics.

        Component names filter in SQL; arbitrary ``where`` axes (dotted
        parameters, record fields) filter in python via
        :meth:`RunRecord.axis_value`, exactly like the shard-scan path.
        Sorted by ``(scenario_key, repetition)``.
        """
        sql, params = self._filter_clause(algorithm, adversary, problem)
        results = []
        for (line,) in self._conn.execute(
            f"SELECT json FROM runs{sql} ORDER BY scenario_key, repetition", params
        ):
            record = _record_from_row(line)
            if where and any(
                record.axis_value(axis) != value for axis, value in where.items()
            ):
                continue
            results.append(record)
        return results

    @staticmethod
    def _filter_clause(
        algorithm: Optional[str], adversary: Optional[str], problem: Optional[str]
    ) -> Tuple[str, Tuple[Any, ...]]:
        clauses: List[str] = []
        params: List[Any] = []
        for column, value in zip(_COLUMN_FILTERS, (algorithm, adversary, problem)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return sql, tuple(params)

    # -- statistics --------------------------------------------------------

    def percentile(
        self,
        metric: str,
        q: float,
        *,
        algorithm: Optional[str] = None,
        adversary: Optional[str] = None,
        problem: Optional[str] = None,
    ) -> float:
        """The ``q``-th percentile (0..100, linear interpolation) of a
        metric column across the filtered records."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must lie in [0, 100], got {q}")
        if metric not in _METRIC_FIELDS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; choose from "
                f"{', '.join(sorted(_METRIC_FIELDS))}"
            )
        sql, params = self._filter_clause(algorithm, adversary, problem)
        values = [
            float(value)
            for (value,) in self._conn.execute(
                f"SELECT {metric} FROM runs{sql} ORDER BY {metric}", params
            )
        ]
        if not values:
            raise ConfigurationError("no records match the percentile query")
        if len(values) == 1:
            return values[0]
        position = (q / 100.0) * (len(values) - 1)
        lower = int(position)
        upper = min(lower + 1, len(values) - 1)
        fraction = position - lower
        return values[lower] + (values[upper] - values[lower]) * fraction

    def aggregate(
        self,
        group_by: Sequence[str] = DEFAULT_GROUP_BY,
        metrics: Sequence[str] = DEFAULT_METRICS,
        *,
        confidence: float = 0.95,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> List[Dict[str, Any]]:
        """Group-by summary rows: :func:`repro.results.aggregate.aggregate`
        over the indexed records (through
        :func:`repro.warehouse.incremental.cached_aggregate`)."""
        # Looked up per call, so a wrapper set on the module attribute (as
        # perfbench's layer tracer sets one) takes effect.
        from repro.warehouse.incremental import cached_aggregate

        return cached_aggregate(
            self._index,
            group_by,
            metrics,
            confidence=confidence,
            resamples=resamples,
        )
