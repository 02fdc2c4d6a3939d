"""System-level performance analysis: the paper's Fig. 5 "Performance
Analysis" box.

Wraps TMG construction (:mod:`repro.model.build`) and cycle-time analysis
(:mod:`repro.tmg.analysis`) into one call operating directly on a system
and a channel ordering, reporting results in system vocabulary (processes
and channels rather than places and transitions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

from repro.core.system import ChannelOrdering, SystemGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a perf<->model cycle
    from repro.perf.engine import PerformanceEngine as PerformanceEngineLike
from repro.errors import DeadlockError, ReproError
from repro.ir import lower
from repro.model.build import (
    CircularWait,
    StructureEntry,
    build_structure,
    build_tmg,
)
from repro.tmg.analysis import PerformanceReport
# Bound as ``analyze``: the benchmark ledger's ``tmg.analyze`` span wraps
# this module's ``analyze`` by name (ROADMAP item 3).
from repro.tmg.analysis import analyze_event_graph as analyze

Number = Union[Fraction, float]


@dataclass(frozen=True)
class SystemPerformance:
    """Performance of a system under a specific configuration.

    Attributes:
        cycle_time: Steady-state cycles between consecutive data items,
            a ``Fraction`` (a float only from ``analyze_system(...,
            exact=False)``).
        critical_processes: Processes whose computation lies on the
            critical cycle — the candidates for timing optimization.
        critical_channels: Channels on the critical cycle.
        report: The underlying TMG-level report.
    """

    cycle_time: Number
    critical_processes: tuple[str, ...]
    critical_channels: tuple[str, ...]
    report: PerformanceReport

    @property
    def throughput(self) -> Number:
        """``1 / cycle_time``, in the cycle time's own type."""
        if self.cycle_time == 0:
            raise ReproError("cycle time is zero; throughput undefined")
        return 1 / self.cycle_time


def analyze_system(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
    exact: bool = True,
    perf_engine: "PerformanceEngineLike | None" = None,
) -> SystemPerformance:
    """Cycle time and critical cycle of a system under an ordering.

    Args:
        exact: ``False`` converts the exact cycle time to the nearest
            float, nothing else.  Only the benchmark ledger's
            ``scal-analyze`` workload passes it; it goes in ROADMAP item
            8's benchmark PR.
        perf_engine: Optional :class:`repro.perf.PerformanceEngine`; when
            given, the call is served through its memoized/incremental
            path (identical results and errors, cached).  ``None`` runs
            the reference uncached analysis.

    Raises:
        DeadlockError: The configuration deadlocks; the error's ``cycle``
            lists the processes and channels in the circular wait.
    """
    if perf_engine is not None:
        performance = perf_engine.analyze(
            system, ordering, process_latencies=process_latencies
        )
    else:
        model = build_tmg(system, ordering, process_latencies=process_latencies)
        # The structure's token-free-cycle search is the one liveness check.
        wait = model.structure.circular_wait
        if wait is not None:
            raise _system_deadlock(system.name, wait)
        performance = _system_performance(
            model.structure, analyze(model.graph)
        )
    if exact:
        return performance
    return replace(performance, cycle_time=float(performance.cycle_time))


def deadlock_cycle(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
) -> tuple[str, ...] | None:
    """The circular wait of a deadlocking configuration, or ``None``.

    The :attr:`~repro.model.build.CircularWait.cycle` of the
    configuration's structure: process and channel names only, e.g.
    ``("d", "f", "P5", "g")`` for the motivating example's Listing-1
    deadlock.  Deadlock is structural, so no latency enters.
    """
    wait = build_structure(lower(system, ordering)).circular_wait
    return None if wait is None else wait.cycle


def _system_performance(
    structure: StructureEntry, report: PerformanceReport
) -> SystemPerformance:
    """``report`` in the design's vocabulary: its critical nodes decoded
    through ``structure``, the one the analyzed graph instantiates."""
    processes, channels = structure.decoder.elements(report.critical_nodes)
    return SystemPerformance(
        cycle_time=report.cycle_time,
        critical_processes=processes,
        critical_channels=channels,
        report=report,
    )


def _system_deadlock(system_name: str, wait: CircularWait) -> DeadlockError:
    return DeadlockError(
        f"system {system_name!r} deadlocks under this channel ordering; "
        "circular wait: " + " -> ".join(wait.cycle),
        cycle=list(wait.cycle),
    )
