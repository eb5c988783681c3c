"""Group-by aggregation of run records with bootstrap confidence intervals.

:func:`aggregate` groups records along any spec axis (record fields,
component names, or dotted component parameters — see
:meth:`repro.results.records.RunRecord.axis_value`) and summarizes each
metric with mean / median / stddev / min / max plus a percentile-bootstrap
confidence interval for the mean.

Everything is deterministic **and order-independent**: group values are
sorted before any statistic is computed and the bootstrap generator is
seeded from the group key and metric name, so aggregating records produced
by a parallel sweep yields byte-identical rows to aggregating the serial
run — or the same records shuffled.

The bootstrap's resample means are exact integer sums divided once, equal
bit for bit to ``statistics.mean`` of the same draws (see
:func:`bootstrap_ci`); each row's own mean, median and stddev are single
``statistics`` calls.
"""

from __future__ import annotations

import json
import random
from statistics import mean, median, pstdev
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.results.records import RunRecord, coerce_record
from repro.utils.rng import derive_seed
from repro.utils.validation import ConfigurationError

#: Metrics summarized when the caller does not choose.
DEFAULT_METRICS: Tuple[str, ...] = (
    "total_messages",
    "amortized_messages",
    "rounds",
    "topological_changes",
    "amortized_adversary_competitive",
)

#: Group-by axes used when the caller does not choose.
DEFAULT_GROUP_BY: Tuple[str, ...] = ("algorithm", "adversary", "n", "k")

#: Bootstrap resamples for the confidence interval of the mean.
DEFAULT_RESAMPLES = 200


def _float_scaling(values: Sequence[float]) -> Optional[Tuple[List[int], int]]:
    """Finite floats as integer numerators over one power-of-two denominator.

    ``None`` when a value is NaN or infinite: those have no integer ratio.
    """
    try:
        ratios = [value.as_integer_ratio() for value in values]
    except (OverflowError, ValueError):
        return None
    denominator = max(den for _, den in ratios)
    return [num * (denominator // den) for num, den in ratios], denominator


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    rng: random.Random,
) -> Tuple[float, float]:
    """A percentile-bootstrap confidence interval for the mean of ``values``.

    Each resample's mean is the exact integer sum of its draw divided once,
    equal bit for bit and in type to ``statistics.mean`` of the same draw:
    int/int true division rounds correctly, as does the float that
    ``statistics.mean`` makes from its exact ``Fraction``.  The draws are
    the same ``rng.choices`` calls.  Only all-``int`` and all-finite-``float``
    samples take this path; anything else (NaN, inf, bool, numpy scalars,
    ``Decimal``, int/float mixes) falls back to ``statistics.mean`` itself.
    """
    if not values:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    if resamples < 1:
        raise ConfigurationError(f"resamples must be at least 1, got {resamples}")
    if len(values) == 1:
        return (values[0], values[0])
    size = len(values)
    kinds = {type(value) for value in values}
    scaling = _float_scaling(values) if kinds == {float} else None
    if kinds == {int}:
        # Like statistics.mean, an all-int mean stays an int when integral.
        totals = [sum(rng.choices(values, k=size)) for _ in range(resamples)]
        means = [total // size if total % size == 0 else total / size for total in totals]
    elif scaling is not None:
        numerators, denominator = scaling
        divisor = denominator * size
        means = [sum(rng.choices(numerators, k=size)) / divisor for _ in range(resamples)]
    else:
        means = [mean(rng.choices(values, k=size)) for _ in range(resamples)]
    means.sort()
    tail = (1.0 - confidence) / 2.0
    low_index = int(tail * (resamples - 1))
    high_index = int((1.0 - tail) * (resamples - 1))
    return (means[low_index], means[high_index])


def _group_sort_key(key: Tuple[Any, ...]) -> Tuple:
    # Numbers sort numerically among themselves, everything else as strings.
    return tuple(
        (0, "", part) if isinstance(part, (int, float)) and not isinstance(part, bool)
        else (1, str(part), 0)
        for part in key
    )


def group_records(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> Dict[Tuple[Any, ...], List[RunRecord]]:
    """Partition records by the values of the group-by axes.

    Within each group, records are sorted by ``(scenario_key, repetition)``
    so downstream statistics never depend on input order.
    """
    if not group_by:
        raise ConfigurationError("group_by needs at least one axis")
    groups: Dict[Tuple[Any, ...], List[RunRecord]] = {}
    for raw in records:
        record = coerce_record(raw)
        key = tuple(record.axis_value(axis) for axis in group_by)
        groups.setdefault(key, []).append(record)
    for members in groups.values():
        members.sort(key=lambda record: (record.scenario_key(), record.repetition))
    return groups


def aggregate(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
) -> List[Dict[str, Any]]:
    """Summarize metrics per group; returns one row dictionary per group.

    Each row holds the group-by columns, ``runs`` (the repetition count),
    ``completed`` (whether every member completed) and, for every metric
    ``m``: ``m_mean``, ``m_median``, ``m_std``, ``m_min``, ``m_max``,
    ``m_ci_low`` and ``m_ci_high``.
    """
    groups = group_records(records, group_by)
    rows: List[Dict[str, Any]] = []
    for key in sorted(groups, key=_group_sort_key):
        members = groups[key]
        row: Dict[str, Any] = dict(zip(group_by, key))
        row["runs"] = len(members)
        row["completed"] = all(record.completed for record in members)
        key_json = json.dumps([str(part) for part in key], sort_keys=True)
        for metric in metrics:
            values = sorted(record.metric_value(metric) for record in members)
            rng = random.Random(derive_seed(0, "bootstrap", key_json, metric))
            ci_low, ci_high = bootstrap_ci(
                values, confidence=confidence, resamples=resamples, rng=rng
            )
            row[f"{metric}_mean"] = mean(values)
            row[f"{metric}_median"] = median(values)
            row[f"{metric}_std"] = pstdev(values) if len(values) > 1 else 0.0
            row[f"{metric}_min"] = values[0]
            row[f"{metric}_max"] = values[-1]
            row[f"{metric}_ci_low"] = ci_low
            row[f"{metric}_ci_high"] = ci_high
        rows.append(row)
    return rows


def aggregate_columns(
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    statistics: Sequence[str] = ("mean", "ci_low", "ci_high"),
) -> List[str]:
    """The column order for rendering :func:`aggregate` rows as a table."""
    columns = list(group_by) + ["runs", "completed"]
    for metric in metrics:
        columns.extend(f"{metric}_{statistic}" for statistic in statistics)
    return columns
