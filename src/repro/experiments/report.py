"""Plain-text table formatting for experiment outputs.

Every experiment module returns structured data; these helpers render that
data as the fixed-width text tables ``repro experiment`` prints, in the
same rows/series layout as the corresponding table or figure in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, List, Sequence

__all__ = ["format_table", "format_percent", "format_series", "jsonify"]


def jsonify(value: Any) -> Any:
    """Best-effort conversion of result objects to JSON-safe values.

    Dataclasses become field dictionaries (recursively), containers are
    converted element-wise, scalars pass through, and anything else falls
    back to ``repr``.  Shared by the CLI's ``--json`` output and the
    golden-result snapshots, so both serialise experiments identically.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: jsonify(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def format_percent(value: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string (``0.83`` -> ``"83.0%"``)."""
    return f"{value * 100:.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width text table.

    Args:
        headers: Column headings.
        rows: Row values; each row must have the same length as ``headers``.
        title: Optional title printed above the table.
    """
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in materialised)
    return "\n".join(lines)


def format_series(name: str, points: Iterable[tuple], value_format: str = "{:.3f}") -> str:
    """Render an (x, y) series as a compact single line."""
    rendered = ", ".join(
        f"{x}: {value_format.format(y)}" for x, y in points
    )
    return f"{name}: {rendered}"
