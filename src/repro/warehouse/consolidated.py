"""Consolidated cross-experiment reports over a whole run store.

A single store accumulates many experiments — different algorithms,
adversaries, problem grids, sweeps persisted into it over weeks.
:func:`render_consolidated_report` reads everything the
warehouse index holds and renders one artifact: an inventory of the
store, a per-``algorithm × adversary`` overview, and for each such pair
the full aggregate table plus the paper-bound verdicts.  Everything goes
through the existing :mod:`repro.results.report` renderers, so ``md`` /
``csv`` / ``json`` all work (non-markdown formats render the overview
table alone — the natural machine-readable cross-experiment summary).
"""

from __future__ import annotations

from statistics import mean
from typing import Any, Dict, List, Sequence, Tuple

from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    aggregate,
    aggregate_columns,
)
from repro.results.compare import compare_to_bounds
from repro.results.records import RunRecord
from repro.results.report import COMPARISON_COLUMNS, rows_to_table
from repro.utils.validation import ConfigurationError

__all__ = ["consolidated_overview_rows", "render_consolidated_report"]

#: Column order of the per-(algorithm, adversary) overview table.
OVERVIEW_COLUMNS = (
    "algorithm", "adversary", "problems", "scenarios", "runs",
    "n_range", "k_range", "completed",
    "mean_rounds", "mean_total_messages", "mean_amortized_messages",
)


def _span(values: Sequence[int]) -> str:
    low, high = min(values), max(values)
    return str(low) if low == high else f"{low}..{high}"


def consolidated_overview_rows(
    records: Sequence[RunRecord],
) -> List[Dict[str, Any]]:
    """One overview row per ``(algorithm, adversary)`` pair in the store."""
    pairs: Dict[Tuple[str, str], List[RunRecord]] = {}
    for record in records:
        pairs.setdefault((record.algorithm, record.adversary), []).append(record)
    rows: List[Dict[str, Any]] = []
    for algorithm, adversary in sorted(pairs):
        members = pairs[(algorithm, adversary)]
        rows.append({
            "algorithm": algorithm,
            "adversary": adversary,
            "problems": ", ".join(sorted({r.problem for r in members})),
            "scenarios": len({r.scenario_key() for r in members}),
            "runs": len(members),
            "n_range": _span([r.n for r in members]),
            "k_range": _span([r.k for r in members]),
            "completed": all(r.completed for r in members),
            "mean_rounds": mean(r.rounds for r in members),
            "mean_total_messages": mean(r.total_messages for r in members),
            "mean_amortized_messages": mean(r.amortized_messages for r in members),
        })
    return rows


def render_consolidated_report(
    records: Sequence[RunRecord],
    *,
    fmt: str = "md",
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    x_axis: str = "n",
    title: str = "Consolidated warehouse report",
) -> str:
    """The cross-experiment report (see the module docstring).

    ``fmt="md"`` renders the full document; ``csv`` / ``json`` / ``text``
    render the overview table alone.
    """
    if not records:
        raise ConfigurationError("the store holds no records to consolidate")
    overview = consolidated_overview_rows(records)
    if fmt != "md":
        return rows_to_table(overview, OVERVIEW_COLUMNS, fmt)
    sections: List[str] = [
        f"# {title}",
        "",
        f"Records: {len(records)} across {len(overview)} "
        f"algorithm × adversary pair(s).",
        "",
        "## Overview",
        "",
        rows_to_table(overview, OVERVIEW_COLUMNS, "md"),
        "",
    ]
    pairs: Dict[Tuple[str, str], List[RunRecord]] = {}
    for record in records:
        pairs.setdefault((record.algorithm, record.adversary), []).append(record)
    for algorithm, adversary in sorted(pairs):
        members = pairs[(algorithm, adversary)]
        sections += [
            f"## {algorithm} × {adversary}",
            "",
            rows_to_table(
                aggregate(members, group_by, metrics),
                aggregate_columns(group_by, metrics),
                "md",
            ),
            "",
        ]
        verdicts = compare_to_bounds(members, x_axis=x_axis)
        if verdicts:
            sections += [
                "### Paper-bound verdicts",
                "",
                rows_to_table(verdicts, COMPARISON_COLUMNS, "md"),
                "",
            ]
        else:
            sections += [
                f"_No registered paper bound covers `{algorithm}`._",
                "",
            ]
    return "\n".join(sections)
