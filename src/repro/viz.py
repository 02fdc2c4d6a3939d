"""Terminal plotting of numeric series (e.g. cycle time per iteration).

Pure-text rendering — no plotting dependency — with an optional
horizontal constraint line.
"""

from __future__ import annotations

from typing import Sequence


def _scale(value: float, lo: float, hi: float, width: int) -> int:
    if hi <= lo:
        return 0
    position = (value - lo) / (hi - lo)
    return max(0, min(width - 1, round(position * (width - 1))))


def ascii_series(
    values: Sequence[float],
    width: int = 48,
    height: int = 10,
    marker: str = "o",
    hline: float | None = None,
) -> str:
    """Plot one series as ASCII, optionally with a horizontal rule."""
    if not values:
        return "(empty series)\n"
    extent = list(values) + ([hline] if hline is not None else [])
    lo = min(extent)
    hi = max(extent)
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]

    if hline is not None:
        row = height - 1 - _scale(hline, lo, hi, height)
        for col in range(width):
            grid[row][col] = "-"

    n = len(values)
    for index, value in enumerate(values):
        col = _scale(index, 0, max(1, n - 1), width)
        row = height - 1 - _scale(value, lo, hi, height)
        grid[row][col] = marker

    lines = []
    for row_index, row in enumerate(grid):
        level = hi - (hi - lo) * row_index / (height - 1)
        lines.append(f"{level:>12.1f} |" + "".join(row))
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(" " * 14 + f"0 .. {n - 1} (iterations)")
    return "\n".join(lines) + "\n"

