"""Plain-text table rendering for benchmark output and EXPERIMENTS.md.

The paper's evaluation artifacts are a table (Table 1) and the theorem
bounds; these helpers render the regenerated versions as monospace tables so
the benchmark harnesses can print them directly.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.bounds import table1_rows
from repro.utils.validation import ConfigurationError


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-2:
            return f"{value:.3e}"
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as an aligned monospace table."""
    if not headers:
        raise ConfigurationError("a table needs at least one column")
    rendered_rows = [[_format_value(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ConfigurationError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    separator = "-+-".join("-" * width for width in widths)
    lines.append(header_line)
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_table1(num_nodes: int) -> str:
    """Regenerate Table 1 (amortized message complexity per token regime) for one n."""
    rows = table1_rows(num_nodes)
    return format_table(
        headers=["tokens (k)", "paper bound", "evaluated amortized bound"],
        rows=[
            [row.label, f"O({row.paper_expression})", row.amortized_bound] for row in rows
        ],
    )


def render_aggregates(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render aggregated sweep rows (dictionaries) as a table."""
    table_rows = [[row.get(column, "") for column in columns] for row in rows]
    return format_table(columns, table_rows)


def render_paper_vs_measured(
    entries: Sequence[Mapping[str, object]],
) -> str:
    """Render a paper-vs-measured comparison table.

    Each entry must provide ``experiment``, ``paper`` and ``measured`` keys and
    may provide ``verdict`` / ``notes``.
    """
    headers = ["experiment", "paper", "measured", "verdict"]
    rows = []
    for entry in entries:
        rows.append(
            [
                entry.get("experiment", ""),
                entry.get("paper", ""),
                entry.get("measured", ""),
                entry.get("verdict", ""),
            ]
        )
    return format_table(headers, rows)
