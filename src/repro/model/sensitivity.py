"""Bottleneck and sensitivity analysis.

Beyond the critical cycle, a designer wants to know *how much* each
process matters: how far can it slow down before it degrades the system
(its **latency slack**), and how much the system would gain if it were
instantaneous (its **speed-up potential**).  Both fall out of the TMG
model with a handful of re-analyses per process — still far cheaper than
simulation, and exactly the guidance the area-recovery/timing ILPs act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from repro.core.system import ChannelOrdering, SystemGraph
from repro.model.performance import analyze_system

Number = Union[Fraction, float]


@dataclass(frozen=True)
class ProcessSensitivity:
    """Sensitivity of the system cycle time to one process.

    Attributes:
        process: The process name.
        latency: Its current computation latency.
        on_critical_cycle: Whether it lies on (one of) the critical cycles.
        slack: Largest latency increase that leaves the cycle time
            unchanged (0 for critical processes).
        potential: Cycle-time reduction if the process were instantaneous
            (0 for processes whose speed does not matter at all).
    """

    process: str
    latency: int
    on_critical_cycle: bool
    slack: int
    potential: Number


@dataclass(frozen=True)
class SensitivityReport:
    """Per-process sensitivities plus the baseline performance."""

    cycle_time: Number
    entries: tuple[ProcessSensitivity, ...]

    def of(self, process: str) -> ProcessSensitivity:
        for entry in self.entries:
            if entry.process == process:
                return entry
        raise KeyError(process)

    def bottlenecks(self) -> tuple[ProcessSensitivity, ...]:
        """Entries with nonzero speed-up potential, most impactful first."""
        return tuple(
            sorted(
                (e for e in self.entries if e.potential > 0),
                key=lambda e: (-float(e.potential), e.process),
            )
        )


def _cycle_time_with(
    system: SystemGraph,
    ordering: ChannelOrdering | None,
    latencies: dict[str, int],
) -> Number:
    return analyze_system(
        system, ordering, process_latencies=latencies
    ).cycle_time


def sensitivity_report(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
    max_slack: int = 1 << 20,
) -> SensitivityReport:
    """Compute per-process latency slack and speed-up potential.

    Slack is found by binary search on the process's latency (the cycle
    time is monotone in every latency); potential by re-analyzing with the
    process at latency zero.  Testbench processes are included — a source
    with zero slack means the environment itself is the bottleneck.

    Cost: ``O(P log(max_slack))`` analyses; use on systems up to a few
    thousand processes.
    """
    baseline_latencies = dict(system.process_latencies())
    baseline_latencies.update(process_latencies or {})
    performance = analyze_system(
        system, ordering, process_latencies=baseline_latencies
    )
    base_ct = performance.cycle_time
    critical = set(performance.critical_processes)

    entries = []
    for process in system.process_names:
        current = baseline_latencies[process]

        # Speed-up potential: the cycle time with this process free.
        fast = dict(baseline_latencies)
        fast[process] = 0
        potential = base_ct - _cycle_time_with(system, ordering, fast)

        # Latency slack: binary search for the largest harmless increase.
        if process in critical:
            slack = 0
        else:
            low, high = 0, 1
            while high <= max_slack:
                probe = dict(baseline_latencies)
                probe[process] = current + high
                if _cycle_time_with(system, ordering, probe) > base_ct:
                    break
                low = high
                high *= 2
            else:
                high = max_slack
            # invariant: low harmless, high harmful (or capped)
            while high - low > 1:
                mid = (low + high) // 2
                probe = dict(baseline_latencies)
                probe[process] = current + mid
                if _cycle_time_with(system, ordering, probe) > base_ct:
                    high = mid
                else:
                    low = mid
            slack = low

        entries.append(
            ProcessSensitivity(
                process=process,
                latency=current,
                on_critical_cycle=process in critical,
                slack=slack,
                potential=potential,
            )
        )

    return SensitivityReport(cycle_time=base_ct, entries=tuple(entries))


def format_sensitivity(report: SensitivityReport, limit: int = 0) -> str:
    """Fixed-width rendering of a sensitivity report."""
    lines = [
        f"cycle time: {report.cycle_time}",
        f"{'process':<16} {'latency':>8} {'critical':>9} {'slack':>10} "
        f"{'potential':>10}",
    ]
    entries = report.entries
    if limit:
        entries = tuple(
            sorted(entries, key=lambda e: -float(e.potential))
        )[:limit]
    for e in entries:
        lines.append(
            f"{e.process:<16} {e.latency:>8} "
            f"{'yes' if e.on_critical_cycle else 'no':>9} {e.slack:>10} "
            f"{str(e.potential):>10}"
        )
    return "\n".join(lines) + "\n"
