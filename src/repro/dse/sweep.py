"""Target sweeps: system-level Pareto frontiers out of ERMES runs.

Section 6 positions ERMES as enabling "richer design-space explorations".
One natural richer exploration is sweeping the target cycle time over a
range and collecting the best feasible configuration per target — yielding
the system-level latency/area Pareto frontier the compositional flow of
Liu & Carloni produces, but with reordering in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.dse.config import SystemConfiguration
from repro.dse.explorer import ExplorationResult, Explorer, _measure_cycle_times
from repro.perf.engine import PerformanceEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

Number = Union[Fraction, float]


@dataclass(frozen=True)
class SweepPoint:
    """One target's outcome in a sweep."""

    target_cycle_time: Number
    cycle_time: Number
    area: float
    feasible: bool
    iterations: int
    result: ExplorationResult
    #: Simulated steady-state cycle time of the final configuration, from
    #: the sweep-level batched cross-validation (``batch=True`` /
    #: ``ERMES_SIM_BATCH``); ``None`` when batching is off or the lane
    #: deadlocked.
    measured_cycle_time: Number | None = None


def sweep_targets(
    config: SystemConfiguration,
    targets: Sequence[Number],
    batch: bool | None = None,
    batch_iterations: int = 32,
    store: "ArtifactStore | None" = None,
    **explorer_kwargs,
) -> list[SweepPoint]:
    """Run one exploration per target cycle time (descending order).

    Each exploration starts from the *previous* target's final
    configuration, mirroring how a designer tightens constraints
    incrementally; this also warm-starts the search.

    All targets share one :class:`~repro.perf.PerformanceEngine` (unless
    ``explorer_kwargs`` provides one): neighbouring targets revisit many of
    the same configurations, so the warm cache serves them directly.

    Pass ``profiler=DseProfiler()`` (see :mod:`repro.obs.profile`) to
    collect per-iteration snapshots across the whole sweep: the profiler
    is shared by every per-target Explorer, its ``sweep.*`` counters and
    timers cover the sweep loop itself, and ``snapshot.iteration`` resets
    per target while the snapshot list keeps accumulating.

    With ``batch=True`` (default: the ``ERMES_SIM_BATCH`` environment
    knob) the sweep cross-validates its frontier by simulation after the
    loop: the per-target final configurations are grouped by ordering —
    they share one compiled structure per group — and replayed through
    one vectorized :class:`repro.sim.BatchSimulator` run per group, one
    lane per target.  Each point's
    :attr:`SweepPoint.measured_cycle_time` carries the simulated
    steady-state period (``None`` for a deadlocking lane).  Exploration
    outcomes are unchanged; batching only measures.

    A ``store`` makes every analysis artifact persistent: a re-run of
    the same sweep (in this process or any other) is served from disk.
    The sweep's Pareto frontier itself is filed in the store too (kind
    ``"pareto"``, keyed by the starting design's IR hash and the target
    list).
    """
    from repro.ir import lower
    from repro.lint import preflight

    # One structural pre-flight and one lowering up front, hoisted out of
    # the per-target loop: failing here reports the codes before any ILP
    # work, the pre-flight success memo turns every per-target re-check
    # inside Explorer.run into a hash lookup, and the warm lowering memo
    # hands each target's first analysis its compiled program for free.
    preflight(config.system, config.ordering)
    base_ir_hash = lower(config.system, config.ordering).structural_hash
    explorer_kwargs.setdefault("perf_engine", PerformanceEngine(store=store))
    # One orbit-canonical verified set across all per-target explorers:
    # symmetric orderings are machine-checked once per sweep, not once
    # per target (the per-explorer dedup still reports per-run counts).
    explorer_kwargs.setdefault("sym_seen", set())
    profiler = explorer_kwargs.get("profiler")
    points: list[SweepPoint] = []
    current = config
    for target in sorted(targets, reverse=True):
        if profiler is not None:
            profiler.metrics.counter("sweep.targets").add(1)
            with profiler.metrics.timer("sweep.explore"):
                result = Explorer(
                    target_cycle_time=target,
                    store=store,
                    **explorer_kwargs,
                ).run(current)
        else:
            result = Explorer(
                target_cycle_time=target,
                store=store,
                **explorer_kwargs,
            ).run(current)
        record = result.final_record
        points.append(
            SweepPoint(
                target_cycle_time=target,
                cycle_time=record.cycle_time,
                area=record.area,
                feasible=record.meets_target,
                iterations=len(result.history) - 1,
                result=result,
            )
        )
        if result.final is not None:
            current = result.final
    if batch is None:
        from repro.sim import batch_enabled_by_env

        batch = batch_enabled_by_env()
    if batch and points:
        # Explorer.run always sets ``final``.
        measured = _measure_cycle_times(
            [point.result.final for point in points],
            batch_iterations,
            profiler.metrics if profiler is not None else None,
        )
        points = [
            replace(point, measured_cycle_time=cycle_time)
            for point, cycle_time in zip(points, measured)
        ]
    if store is not None and points:
        _store_frontier(store, base_ir_hash, targets, points)
    return points


def _store_frontier(store, base_ir_hash, targets, points):
    """File the sweep's Pareto frontier in the artifact store.

    The payload is a compact summary (targets in, frontier out), not the
    full per-target exploration results — the store holds *answers*, and
    the answer of a sweep is its frontier.
    """
    from repro.store import params_digest

    digest = params_digest(
        {
            "op": "pareto",
            "targets": tuple(str(t) for t in sorted(targets)),
        }
    )
    frontier = pareto_points(points)
    payload = tuple(
        {
            "target_cycle_time": p.target_cycle_time,
            "cycle_time": p.cycle_time,
            "area": p.area,
            "feasible": p.feasible,
            "measured_cycle_time": p.measured_cycle_time,
        }
        for p in frontier
    )
    store.put(base_ir_hash, "pareto", digest, payload)


def pareto_points(points: Iterable[SweepPoint]) -> list[SweepPoint]:
    """The non-dominated (cycle time, area) subset of a sweep's feasible
    outcomes, sorted by ascending cycle time.

    Cycle times are compared **exactly**: the analysis engine produces
    :class:`fractions.Fraction` values, and Python compares ``Fraction``
    with ``Fraction``/``float`` without rounding.  Collapsing through
    ``float()`` here used to merge distinct cycle times that collide in
    double precision, silently dropping genuine frontier points
    (regression-tested in ``tests/dse/test_sweep.py``).
    """
    feasible = sorted(
        (p for p in points if p.feasible),
        key=lambda p: (p.cycle_time, p.area),
    )
    frontier: list[SweepPoint] = []
    best_area = float("inf")
    for point in feasible:
        if point.area < best_area:
            if frontier and frontier[-1].cycle_time == point.cycle_time:
                continue
            frontier.append(point)
            best_area = point.area
    return frontier


def sweep_table(points: Iterable[SweepPoint], area_unit: float = 1.0,
                cycle_time_unit: float = 1.0) -> str:
    """Fixed-width rendering of a sweep."""
    lines = [
        f"{'target':>12} {'achieved':>12} {'area':>12} "
        f"{'feasible':>8} {'iters':>6}"
    ]
    for p in points:
        lines.append(
            f"{float(p.target_cycle_time) / cycle_time_unit:>12.1f} "
            f"{float(p.cycle_time) / cycle_time_unit:>12.1f} "
            f"{p.area / area_unit:>12.3f} "
            f"{str(p.feasible):>8} {p.iterations:>6}"
        )
    return "\n".join(lines) + "\n"
