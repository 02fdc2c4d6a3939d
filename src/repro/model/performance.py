"""System-level performance analysis: the paper's Fig. 5 "Performance
Analysis" box.

Wraps TMG construction (:mod:`repro.model.build`) and cycle-time analysis
(:mod:`repro.tmg.analysis`) into one call operating directly on a system
and a channel ordering, reporting results in system vocabulary (processes
and channels rather than places and transitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

from repro.core.system import ChannelOrdering, SystemGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a perf<->model cycle
    from repro.perf.engine import PerformanceEngine as PerformanceEngineLike
from repro.errors import DeadlockError, NotLiveError
from repro.ir import lower
from repro.model.build import (
    CHANNEL_PREFIX,
    PROCESS_PREFIX,
    build_structure,
    build_tmg,
    critical_channels,
    critical_processes,
    effective_latencies,
)
from repro.tmg.analysis import PerformanceReport, analyze

Number = Union[Fraction, float]


@dataclass(frozen=True)
class SystemPerformance:
    """Performance of a system under a specific configuration.

    Attributes:
        cycle_time: Steady-state cycles between consecutive data items.
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
        return self.report.throughput


def analyze_system(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
    exact: bool = True,
    perf_engine: "PerformanceEngineLike | None" = None,
) -> SystemPerformance:
    """Cycle time and critical cycle of a system under an ordering.

    Args:
        perf_engine: Optional :class:`repro.perf.PerformanceEngine`; when
            given, the call is served through its memoized/incremental
            path (identical results and errors, cached).  ``None`` runs
            the reference uncached analysis.

    Raises:
        DeadlockError: The configuration deadlocks; the error's ``cycle``
            lists the processes and channels in the circular wait.
    """
    if perf_engine is not None:
        return perf_engine.analyze(
            system,
            ordering,
            process_latencies=process_latencies,
            exact=exact,
        )
    model = build_tmg(system, ordering, process_latencies=process_latencies)
    try:
        report = analyze(model.graph, exact=exact)
    except NotLiveError as error:
        raise _system_deadlock(system.name, error) from None
    return _system_performance(report)


def is_deadlock_free(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
) -> bool:
    """True iff the configuration cannot deadlock.

    Deadlock freedom of a marked graph depends only on the topology,
    statement orders, and initial tokens — not on latencies — so this is a
    purely structural, linear-time check.

    Raises:
        ValidationError: See :func:`repro.model.build.effective_latencies`.
    """
    effective_latencies(system, process_latencies)
    return deadlock_cycle(system, ordering) is None


def deadlock_cycle(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
) -> tuple[str, ...] | None:
    """The circular wait of a deadlocking configuration, or ``None``.

    Returned as alternating system-level names (processes and channels),
    e.g. ``("P2", "d", "P6", "g", "P5", "f")`` for the motivating example's
    Section 2 deadlock.
    """
    witness = build_structure(lower(system, ordering)).deadlock_cycle
    if witness is None:
        return None
    return _strip_prefixes(witness)


def _system_performance(report: PerformanceReport) -> SystemPerformance:
    return SystemPerformance(
        cycle_time=report.cycle_time,
        critical_processes=critical_processes(report.critical_cycle),
        critical_channels=critical_channels(report.critical_cycle),
        report=report,
    )


def _system_deadlock(system_name: str, error: NotLiveError) -> DeadlockError:
    cycle = _strip_prefixes(error.cycle or [])
    return DeadlockError(
        f"system {system_name!r} deadlocks under this channel ordering; "
        "circular wait: " + " -> ".join(cycle),
        cycle=list(cycle),
    )


def _strip_prefixes(names: list[str]) -> tuple[str, ...]:
    stripped = []
    for name in names:
        if name.startswith(CHANNEL_PREFIX):
            stripped.append(name[len(CHANNEL_PREFIX):])
        elif name.startswith(PROCESS_PREFIX):
            stripped.append(name[len(PROCESS_PREFIX):])
        else:
            stripped.append(name)
    return tuple(stripped)
