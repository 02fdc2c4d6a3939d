"""DSE profiling: per-iteration snapshots of an ERMES exploration.

Attach a :class:`DseProfiler` to :class:`repro.dse.Explorer` and every
exploration iteration leaves one :class:`IterationSnapshot` behind —
what the loop did (action, cycle time, area, slack), what it cost (wall
time, ILP branch-and-bound nodes), and how the analysis cache behaved
(hit/miss deltas) — so a finished run can be replayed as a convergence
timeline (``ermes profile --json``).

The profiler records into the active
:class:`~repro.obs.metrics.MetricsRegistry` (see
:func:`~repro.obs.metrics.collect`) under the stable ``dse.*`` /
``cache.*`` metric names (catalog: ``docs/OBSERVABILITY.md``), like every
other instrumented layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Protocol

from repro.obs.metrics import active, count, observe


class RecordLike(Protocol):
    """The slice of :class:`repro.dse.IterationRecord` the profiler reads.

    A structural protocol (rather than an import) keeps ``repro.obs``
    free of dependencies on the exploration layer.
    """

    @property
    def iteration(self) -> int: ...  # pragma: no cover - protocol

    @property
    def action(self) -> str: ...  # pragma: no cover - protocol

    @property
    def cycle_time(self) -> Fraction | float: ...  # pragma: no cover

    @property
    def area(self) -> float: ...  # pragma: no cover - protocol

    @property
    def slack(self) -> Fraction | float: ...  # pragma: no cover

    @property
    def meets_target(self) -> bool: ...  # pragma: no cover - protocol

    @property
    def selection_changes(
        self,
    ) -> tuple[tuple[str, str], ...]: ...  # pragma: no cover

    @property
    def reordered_processes(self) -> tuple[str, ...]: ...  # pragma: no cover


class CacheStatsLike(Protocol):
    """Hit/miss counters (:class:`repro.perf.CacheStats` shaped)."""

    @property
    def hits(self) -> int: ...  # pragma: no cover - protocol

    @property
    def misses(self) -> int: ...  # pragma: no cover - protocol


class EngineLike(Protocol):
    """The slice of :class:`repro.perf.PerformanceEngine` the profiler
    reads (result-cache totals and the mergeable counter dict)."""

    def stats(self) -> Mapping[str, CacheStatsLike]: ...  # pragma: no cover

    def stats_dict(
        self,
    ) -> Mapping[str, Mapping[str, int | float]]: ...  # pragma: no cover


@dataclass(frozen=True)
class IterationSnapshot:
    """One DSE iteration as the profiler saw it.

    ``cache_hits`` / ``cache_misses`` are *deltas* over this iteration
    (analysis results-cache lookups), not cumulative totals;
    ``ilp_nodes`` counts branch-and-bound nodes explored by the
    iteration's ILP solve(s); ``wall_time_s`` is the wall-clock span
    since the previous snapshot.
    """

    iteration: int
    action: str
    cycle_time: float
    area: float
    slack: float
    meets_target: bool
    selection_changes: tuple[tuple[str, str], ...]
    reordered_processes: tuple[str, ...]
    wall_time_s: float
    cache_hits: int
    cache_misses: int
    ilp_nodes: int

    def as_dict(self) -> dict[str, object]:
        return {
            "iteration": self.iteration,
            "action": self.action,
            "cycle_time": self.cycle_time,
            "area": self.area,
            "slack": self.slack,
            "meets_target": self.meets_target,
            "selection_changes": [list(c) for c in self.selection_changes],
            "reordered_processes": list(self.reordered_processes),
            "wall_time_s": round(self.wall_time_s, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "ilp_nodes": self.ilp_nodes,
        }


class DseProfiler:
    """Collects :class:`IterationSnapshot` rows from an ERMES run.

    Pass one to :class:`repro.dse.Explorer`; it is re-armed at the start
    of every ``run()`` (snapshots accumulate across runs, e.g. over a
    :func:`repro.dse.sweep_targets` sweep — ``runs`` counts them).
    """

    def __init__(self) -> None:
        self.snapshots: list[IterationSnapshot] = []
        self.runs = 0
        self._mark = 0.0
        self._cache_seen = (0, 0)

    # ------------------------------------------------------------------

    def begin_run(self, engine: EngineLike) -> None:
        """Explorer hook: a ``run()`` is starting against ``engine``."""
        self.runs += 1
        count("dse.runs")
        self._mark = time.perf_counter()
        self._cache_seen = self._cache_totals(engine)

    def iteration(
        self,
        record: RecordLike,
        engine: EngineLike,
        ilp_nodes: int = 0,
    ) -> IterationSnapshot:
        """Explorer hook: one :class:`IterationRecord` was produced."""
        now = time.perf_counter()
        hits, misses = self._cache_totals(engine)
        snapshot = IterationSnapshot(
            iteration=record.iteration,
            action=record.action,
            cycle_time=float(record.cycle_time),
            area=record.area,
            slack=float(record.slack),
            meets_target=record.meets_target,
            selection_changes=record.selection_changes,
            reordered_processes=record.reordered_processes,
            wall_time_s=now - self._mark,
            cache_hits=hits - self._cache_seen[0],
            cache_misses=misses - self._cache_seen[1],
            ilp_nodes=ilp_nodes,
        )
        self.snapshots.append(snapshot)
        self._mark = now
        self._cache_seen = (hits, misses)
        count("dse.iterations")
        observe("dse.iteration.wall_s", snapshot.wall_time_s)
        observe("dse.iteration.cycle_time", snapshot.cycle_time)
        return snapshot

    def end_run(self, result: object, engine: EngineLike) -> None:
        """Explorer hook: the run finished (any stop reason)."""
        registry = active()
        if registry is not None:
            registry.merge_cache_stats(engine.stats_dict())

    # ------------------------------------------------------------------

    @staticmethod
    def _cache_totals(engine: EngineLike) -> tuple[int, int]:
        stats = engine.stats()["results"]
        return stats.hits, stats.misses

    def as_dicts(self) -> list[dict[str, object]]:
        """All snapshots, JSON-friendly (the ``ermes profile --json``
        ``iterations`` array)."""
        return [s.as_dict() for s in self.snapshots]


def format_convergence(
    snapshots: list[IterationSnapshot],
    cycle_time_unit: float = 1.0,
    area_unit: float = 1.0,
) -> str:
    """Fixed-width convergence timeline of a profiled run."""
    lines = [
        f"{'iter':>4} {'action':<20} {'cycle time':>12} {'area':>10} "
        f"{'ok':>3} {'wall (ms)':>10} {'hits':>6} {'miss':>6} "
        f"{'ilp nodes':>10}"
    ]
    for s in snapshots:
        lines.append(
            f"{s.iteration:>4} {s.action:<20} "
            f"{s.cycle_time / cycle_time_unit:>12.1f} "
            f"{s.area / area_unit:>10.3f} "
            f"{'y' if s.meets_target else 'n':>3} "
            f"{s.wall_time_s * 1000:>10.2f} {s.cache_hits:>6} "
            f"{s.cache_misses:>6} {s.ilp_nodes:>10}"
        )
    return "\n".join(lines)


def stall_attribution(
    stall_breakdown: Mapping[str, Mapping[str, int]],
    channel_peers: Mapping[str, tuple[str, str]] | None = None,
    limit: int = 10,
) -> list[tuple[str, str, str, int]]:
    """Rank (process, channel, waiting-on, cycles) stall rows, worst first.

    ``channel_peers`` maps channel name to ``(producer, consumer)``; the
    waiting-on column is the channel's *other* endpoint, or ``?`` when
    the topology is not provided.
    """
    rows: list[tuple[str, str, str, int]] = []
    for process, by_channel in stall_breakdown.items():
        for channel, cycles in by_channel.items():
            peer = "?"
            if channel_peers and channel in channel_peers:
                producer, consumer = channel_peers[channel]
                peer = consumer if process == producer else producer
            rows.append((process, channel, peer, cycles))
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    return rows[:limit]
