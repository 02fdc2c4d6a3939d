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
from typing import Iterable, Sequence, Union

# ``sweep_targets`` calls ``preflight`` through ``repro.lint`` at call
# time; importing its module here loads it with the sweep.
import repro.lint.engine  # noqa: F401
from repro.dse.config import SystemConfiguration
from repro.dse.explorer import ExplorationResult, Explorer
from repro.obs.metrics import count, timed
from repro.perf.engine import PerformanceEngine

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
    #: the sweep-level batched cross-validation (``batch=True``); ``None``
    #: when batching is off or the lane deadlocked.
    measured_cycle_time: Number | None = None


def _measure_cycle_times(
    configs: Sequence[SystemConfiguration],
    iterations: int,
) -> list[Number | None]:
    """Simulated steady-state cycle time of each configuration.

    Configurations sharing an ordering share a compiled structure, so
    each ordering group is one :class:`~repro.sim.BatchSimulator` run
    with one lane per configuration — their selections differ only in
    process latencies, exactly what a :class:`~repro.sim.BatchLane`
    overrides.  A lane whose simulation deadlocks yields ``None`` (the
    analysis may accept an ordering simulation rejects; that disagreement
    is the point of cross-validation).
    """
    from repro.errors import SimulationDeadlock
    from repro.sim import BatchLane, BatchSimulator, default_watch

    groups: list[tuple[SystemConfiguration, list[int]]] = []
    for i, cfg in enumerate(configs):
        for first, indices in groups:
            if not cfg.ordering.differs_from(first.ordering):
                indices.append(i)
                break
        else:
            groups.append((cfg, [i]))
    measured: list[Number | None] = [None] * len(configs)
    for first, indices in groups:
        watch = default_watch(first.system)
        lanes = [
            BatchLane(process_latencies=configs[i].process_latencies())
            for i in indices
        ]
        outcomes = BatchSimulator(first.system, first.ordering, lanes=lanes).run(
            iterations=iterations, watch=watch, on_deadlock="capture"
        )
        for i, outcome in zip(indices, outcomes):
            if not isinstance(outcome, SimulationDeadlock):
                measured[i] = outcome.measured_cycle_time(watch)
    return measured


def sweep_targets(
    config: SystemConfiguration,
    targets: Sequence[Number],
    batch: bool = False,
    batch_iterations: int = 32,
    **explorer_kwargs,
) -> list[SweepPoint]:
    """Run one exploration per target cycle time (descending order).

    Each exploration starts from the *previous* target's final
    configuration, mirroring how a designer tightens constraints
    incrementally; this also warm-starts the search.

    All targets share one :class:`~repro.perf.PerformanceEngine` (unless
    ``explorer_kwargs`` provides one): neighbouring targets revisit many of
    the same configurations, so the warm cache serves them directly.

    Each point's ``result.history`` is that target's trajectory, with
    the per-iteration cost (wall time, cache hits and misses, ILP nodes)
    on every record.  With a registry active (:func:`repro.obs.collect`),
    the ``sweep.*`` counters and timers cover the sweep loop itself.

    With ``batch=True`` the sweep cross-validates its frontier by
    simulation after the loop: the per-target final configurations are
    grouped by ordering — they share one compiled structure per group —
    and replayed through one vectorized :class:`repro.sim.BatchSimulator`
    run per group, one lane per target.  Each point's
    :attr:`SweepPoint.measured_cycle_time` carries the simulated
    steady-state period (``None`` for a deadlocking lane).  Exploration
    outcomes are unchanged; batching only measures.
    """
    from repro.lint import preflight

    # One structural pre-flight up front, hoisted out of the per-target
    # loop: failing here reports the codes before any ILP work, and the
    # pre-flight success memo turns every per-target re-check inside
    # Explorer.run into a lowering-memo hit and one lookup.
    preflight(config.system, config.ordering)
    explorer_kwargs.setdefault("perf_engine", PerformanceEngine())
    # One orbit-canonical verified set across all per-target explorers:
    # symmetric orderings are machine-checked once per sweep, not once
    # per target (the per-explorer dedup still reports per-run counts).
    explorer_kwargs.setdefault("sym_seen", set())
    points: list[SweepPoint] = []
    current = config
    for target in sorted(targets, reverse=True):
        count("sweep.targets")
        with timed("sweep.explore"):
            result = Explorer(
                target_cycle_time=target, **explorer_kwargs
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
    if batch and points:
        # Explorer.run always sets ``final``.
        measured = _measure_cycle_times(
            [point.result.final for point in points], batch_iterations
        )
        points = [
            replace(point, measured_cycle_time=cycle_time)
            for point, cycle_time in zip(points, measured)
        ]
    return points


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
