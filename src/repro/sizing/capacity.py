"""FIFO capacity sizing for buffered channels.

The paper's related-work section notes that dataflow-style designs "lead
to communication channels based on FIFOs, which must be carefully sized"
— the complementary problem to channel ordering.  This module solves it
on top of the same TMG machinery: given a system whose channels are FIFOs,
find small per-channel capacities that reach a target cycle time.

Theory: in the split FIFO model each channel contributes a *credit place*
(free slots) on the reverse direction.  Forward data dependencies are
unaffected by capacity, so the achievable floor is the cycle time with all
capacities at infinity — equivalently, the maximum ratio over cycles that
use no credit place.  Above that floor, capacity only relaxes cycles
through credit places, and adding slots is monotone (never hurts), which
makes a greedy critical-cycle-driven procedure sound: while the target is
missed, find the critical cycle; if it traverses credit places, the cycle
is capacity-limited — bump the traversed channel whose relaxation is
cheapest; otherwise the target is unreachable by sizing alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ReproError, ValidationError
from repro.model.build import build_tmg
from repro.tmg.analysis import analyze

Number = Union[Fraction, float]


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a capacity-sizing run.

    Attributes:
        capacities: Chosen capacity per channel (only channels that needed
            buffering appear; absent channels stay rendezvous).
        cycle_time: Achieved cycle time under those capacities.
        feasible: Whether the target was reached (False means the result
            carries the best capacity-saturated configuration found).
        total_slots: Sum of all chosen capacities — the buffer cost.
    """

    capacities: Mapping[str, int]
    cycle_time: Number
    feasible: bool

    @property
    def total_slots(self) -> int:
        return sum(self.capacities.values())


def cycle_time_with_capacities(
    system: SystemGraph,
    capacities: Mapping[str, int],
    ordering: ChannelOrdering | None = None,
) -> Number:
    """Cycle time of the system with the given FIFO capacities."""
    model = build_tmg(system.with_channel_capacities(capacities), ordering)
    return analyze(model.graph).cycle_time


def size_buffers(
    system: SystemGraph,
    target_cycle_time: Number,
    ordering: ChannelOrdering | None = None,
    max_capacity: int = 64,
    max_rounds: int = 10_000,
) -> SizingResult:
    """Find small FIFO capacities reaching the target cycle time.

    Starts from every channel at capacity 1 (the minimum meaningful FIFO)
    and greedily bumps the capacity of credit-limited channels on the
    critical cycle until the target is met, a channel saturates
    ``max_capacity``, or the floor (no credit place on the critical cycle)
    is hit.

    Args:
        system: The system; existing ``initial_tokens`` are preserved and
            act as lower bounds on the affected channels' capacities.
        target_cycle_time: The cycle time to reach.
        ordering: Statement orders (default declaration).
        max_capacity: Per-channel capacity ceiling.
        max_rounds: Safety bound on greedy iterations.

    Raises:
        ValidationError: ``target_cycle_time`` is not positive.
    """
    if target_cycle_time <= 0:
        raise ValidationError("target cycle time must be positive")

    capacities: dict[str, int] = {
        c.name: max(1, c.initial_tokens) for c in system.channels
    }

    for _ in range(max_rounds):
        model = build_tmg(system.with_channel_capacities(capacities), ordering)
        report = analyze(model.graph)
        if report.cycle_time <= target_cycle_time:
            return SizingResult(
                capacities=dict(capacities),
                cycle_time=report.cycle_time,
                feasible=True,
            )
        # Channels whose credit place lies on the critical cycle are the
        # capacity-limited ones.
        rows = model.graph.place
        bumpable = [
            name
            for name in model.structure.decoder.credit_channels(
                rows[e] for e in report.critical_edges
            )
            if capacities[name] < max_capacity
        ]
        if not bumpable:
            return SizingResult(
                capacities=dict(capacities),
                cycle_time=report.cycle_time,
                feasible=False,
            )
        # Bump the cheapest channel (fewest current slots) on the cycle —
        # a simple cost heuristic that keeps totals small.
        chosen = min(bumpable, key=lambda name: capacities[name])
        capacities[chosen] += 1
    raise ReproError(
        f"buffer sizing did not converge within {max_rounds} rounds"
    )


def minimize_buffers(
    system: SystemGraph,
    target_cycle_time: Number,
    ordering: ChannelOrdering | None = None,
    max_capacity: int = 64,
) -> SizingResult:
    """Greedy sizing followed by a trim pass.

    After :func:`size_buffers` reaches the target, try to reduce each
    channel's capacity (largest first) while the target still holds —
    removing the slack the greedy ascent may have left behind.
    """
    result = size_buffers(
        system, target_cycle_time, ordering, max_capacity=max_capacity
    )
    if not result.feasible:
        return result
    capacities = dict(result.capacities)
    for name in sorted(capacities, key=lambda n: -capacities[n]):
        floor = max(1, system.channel(name).initial_tokens)
        while capacities[name] > floor:
            capacities[name] -= 1
            if (
                cycle_time_with_capacities(system, capacities, ordering)
                > target_cycle_time
            ):
                capacities[name] += 1
                break
    final_ct = cycle_time_with_capacities(system, capacities, ordering)
    return SizingResult(
        capacities=capacities, cycle_time=final_ct, feasible=True
    )
