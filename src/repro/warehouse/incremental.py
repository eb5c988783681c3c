"""The indexed group-by.

:func:`cached_aggregate` is :func:`repro.results.aggregate.aggregate` over
the warehouse index's records.  The index stores records and answers
lookups; that one function does every aggregation, so indexed output
equals the shard scan's: the same function over the same records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    DEFAULT_RESAMPLES,
    aggregate,
)
from repro.warehouse.index import WarehouseIndex

__all__ = ["cached_aggregate"]


def cached_aggregate(
    index: WarehouseIndex,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
) -> List[Dict[str, Any]]:
    """:func:`~repro.results.aggregate.aggregate` over the indexed records.

    The name outlives the group cache it once served because
    ``perfbench/layers.py`` times the indexed group-by by wrapping it here.
    """
    return aggregate(
        index.query().records(),
        group_by,
        metrics,
        confidence=confidence,
        resamples=resamples,
    )
