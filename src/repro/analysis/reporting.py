"""Plain-text tables for benches and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned monospace table.

    >>> print(format_table(["a", "b"], [[1, "x"], [22, "yy"]]))
    a  | b
    ---+---
    1  | x
    22 | yy
    """
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers)).rstrip()
    ]
    lines.append("-+-".join("-" * width for width in widths))
    for row in materialized:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def format_float(value: object, digits: int = 2) -> str:
    """Render an optional float for a table cell (``-`` for missing).

    >>> format_float(1.2345), format_float(None), format_float(7)
    ('1.23', '-', '7.00')
    """
    if value is None:
        return "-"
    return f"{float(value):.{digits}f}"


def format_rate(numerator: int, denominator: int) -> str:
    """Render ``numerator/denominator`` as a compact ratio cell.

    >>> format_rate(3, 4), format_rate(0, 0)
    ('3/4', '0/0')
    """
    return f"{numerator}/{denominator}"
