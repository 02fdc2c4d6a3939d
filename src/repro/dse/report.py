"""Reporting helpers: Fig. 6-style exploration tables and summaries."""

from __future__ import annotations

import io
from typing import Iterable

from repro.dse.explorer import ExplorationResult, IterationRecord


def iteration_table(
    result: ExplorationResult,
    cycle_time_unit: float = 1.0,
    area_unit: float = 1.0,
) -> str:
    """Render the trajectory as a fixed-width table (one Fig. 6 series).

    ``cycle_time_unit``/``area_unit`` rescale raw numbers (e.g. 1000.0 to
    print KCycles, 1e6 to print mm² from µm²).
    """
    out = io.StringIO()
    out.write(
        f"{'iter':>4}  {'action':<20} {'cycle time':>12} {'area':>10} "
        f"{'slack':>12}  {'meets':>5}  changes\n"
    )
    for row in result.history:
        ct = float(row.cycle_time) / cycle_time_unit
        area = row.area / area_unit
        slack = float(row.slack) / cycle_time_unit
        changed = ", ".join(f"{p}->{i}" for p, i in row.selection_changes)
        if row.reordered_processes:
            reordered = ",".join(row.reordered_processes)
            changed = (changed + "; " if changed else "") + f"reorder[{reordered}]"
        out.write(
            f"{row.iteration:>4}  {row.action:<20} {ct:>12.3f} {area:>10.3f} "
            f"{slack:>12.3f}  {str(row.meets_target):>5}  {changed}\n"
        )
    out.write(f"stop: {result.stop_reason}\n")
    return out.getvalue()


def series(
    result: ExplorationResult,
    cycle_time_unit: float = 1.0,
    area_unit: float = 1.0,
) -> list[dict]:
    """The (iteration, cycle time, area) series behind a Fig. 6 panel."""
    return [
        {
            "iteration": row.iteration,
            "action": row.action,
            "cycle_time": float(row.cycle_time) / cycle_time_unit,
            "area": row.area / area_unit,
            "meets_target": row.meets_target,
        }
        for row in result.history
    ]


def convergence_rows(records: Iterable[IterationRecord]) -> list[dict]:
    """A trajectory with its per-iteration cost, JSON-friendly (the
    ``ermes profile --json`` ``iterations`` array)."""
    return [
        {
            "iteration": row.iteration,
            "action": row.action,
            "cycle_time": float(row.cycle_time),
            "area": row.area,
            "slack": float(row.slack),
            "meets_target": row.meets_target,
            "selection_changes": [list(c) for c in row.selection_changes],
            "reordered_processes": list(row.reordered_processes),
            "wall_time_s": round(row.wall_time_s, 6),
            "cache_hits": row.cache_hits,
            "cache_misses": row.cache_misses,
            "ilp_nodes": row.ilp_nodes,
        }
        for row in records
    ]


def format_convergence(
    records: Iterable[IterationRecord],
    cycle_time_unit: float = 1.0,
    area_unit: float = 1.0,
) -> str:
    """Fixed-width convergence timeline: the trajectory with the wall
    time, cache hits/misses and ILP nodes each iteration cost."""
    lines = [
        f"{'iter':>4} {'action':<20} {'cycle time':>12} {'area':>10} "
        f"{'ok':>3} {'wall (ms)':>10} {'hits':>6} {'miss':>6} "
        f"{'ilp nodes':>10}"
    ]
    for row in records:
        lines.append(
            f"{row.iteration:>4} {row.action:<20} "
            f"{float(row.cycle_time) / cycle_time_unit:>12.1f} "
            f"{row.area / area_unit:>10.3f} "
            f"{'y' if row.meets_target else 'n':>3} "
            f"{row.wall_time_s * 1000:>10.2f} {row.cache_hits:>6} "
            f"{row.cache_misses:>6} {row.ilp_nodes:>10}"
        )
    return "\n".join(lines)


def summarize(result: ExplorationResult) -> str:
    """One-paragraph summary in the style of the paper's Section 6 prose."""
    first = result.initial_record
    last = result.final_record
    speed = result.speedup
    area = result.area_change
    direction = "overhead" if area >= 0 else "reduction"
    return (
        f"exploration: CT {float(first.cycle_time):.0f} -> "
        f"{float(last.cycle_time):.0f} cycles "
        f"({speed:.2f}x speed-up), area {first.area:.3f} -> {last.area:.3f} "
        f"({abs(area) * 100:.2f}% {direction}), "
        f"{len(result.history) - 1} iterations, stop: {result.stop_reason}"
    )
