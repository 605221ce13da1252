"""Plain-text table rendering for experiment output.

The benchmark harness prints the same rows the paper's conceptual
artifacts define (Figure 1 paths, Example 1 utilities, detection
matrices); these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def _stringify(value: Any, float_digits: int) -> str:
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    float_digits: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [
        [_stringify(cell, float_digits) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row arity does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
