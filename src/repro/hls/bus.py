"""Bus-width optimization for channels.

Channel latencies are not free parameters: they follow from the data
volume and the physical width the HLS tool gives the channel
(:mod:`repro.hls.characterize`).  Widening a bus shortens the transfer at
a wiring-area cost — a per-channel knob exactly analogous to the
per-process implementation choice of Section 5.  This module optimizes
those widths against a target cycle time: greedy widening of the
best-value critical channel, then a narrowing trim pass, mirroring the
structure of :mod:`repro.sizing`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence, Union

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ValidationError
from repro.hls.characterize import ChannelPhysics, transfer_latency
from repro.model.performance import analyze_system

Number = Union[Fraction, float]


@dataclass(frozen=True)
class WidthResult:
    """Outcome of a bus-width optimization.

    Attributes:
        widths: Chosen elements-per-cycle per sized channel.
        latencies: Resulting transfer latencies.
        cycle_time: Achieved cycle time.
        wire_area: Total wiring cost (``area_per_lane × Σ widths``).
        feasible: Whether the target was met.
    """

    widths: Mapping[str, int]
    latencies: Mapping[str, int]
    cycle_time: Number
    wire_area: float
    feasible: bool


def _apply_widths(
    system: SystemGraph,
    volumes: Mapping[str, int],
    widths: Mapping[str, int],
) -> SystemGraph:
    clone = system.copy()
    for name, width in widths.items():
        channel = clone.channel(name)
        latency = transfer_latency(
            volumes[name], ChannelPhysics(elements_per_cycle=width)
        )
        clone.replace_channel(replace(channel, latency=latency))
    return clone


def optimize_widths(
    system: SystemGraph,
    volumes: Mapping[str, int],
    target_cycle_time: Number,
    widths: Sequence[int] = (8, 16, 32, 64),
    area_per_lane: float = 1.0,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
) -> WidthResult:
    """Choose per-channel bus widths meeting a target cycle time cheaply.

    Args:
        system: The system; channels named in ``volumes`` are sized, the
            rest keep their declared latencies.
        volumes: Data elements per logical transfer, per sized channel.
        target_cycle_time: The TCT constraint.
        widths: The width menu the flow may pick from (ascending).
        area_per_lane: Wiring cost per element lane.
        ordering: Statement orders (default declaration).
        process_latencies: Optional implementation-selection overrides.
    """
    if not volumes:
        raise ValidationError("no channels to size (volumes is empty)")
    menu = sorted(set(widths))
    if not menu or menu[0] < 1:
        raise ValidationError("widths must be positive")
    for name in volumes:
        system.channel(name)  # raises on unknown channels

    current = {name: menu[0] for name in volumes}

    def evaluate(assignment: Mapping[str, int]):
        sized = _apply_widths(system, volumes, assignment)
        return analyze_system(
            sized, ordering, process_latencies=process_latencies
        )

    # Greedy widening of the best delay-per-area critical channel.
    for _ in range(len(volumes) * len(menu) + 1):
        performance = evaluate(current)
        if performance.cycle_time <= target_cycle_time:
            break
        best_name = None
        best_value = 0.0
        for name in performance.critical_channels:
            if name not in volumes:
                continue
            width = current[name]
            index = menu.index(width)
            if index + 1 == len(menu):
                continue
            next_width = menu[index + 1]
            gain = transfer_latency(
                volumes[name], ChannelPhysics(elements_per_cycle=width)
            ) - transfer_latency(
                volumes[name], ChannelPhysics(elements_per_cycle=next_width)
            )
            cost = area_per_lane * (next_width - width)
            value = gain / cost if cost > 0 else float("inf")
            if best_name is None or value > best_value:
                best_name, best_value = name, value
        if best_name is None:
            # Critical cycle not width-limited (or menu exhausted there).
            return _result(system, volumes, current, performance,
                           area_per_lane, feasible=False)
        current[best_name] = menu[menu.index(current[best_name]) + 1]
    else:
        performance = evaluate(current)
        if performance.cycle_time > target_cycle_time:
            return _result(system, volumes, current, performance,
                           area_per_lane, feasible=False)

    # Trim pass: narrow the widest channels while the target holds.
    for name in sorted(current, key=lambda n: -current[n]):
        while current[name] > menu[0]:
            narrower = menu[menu.index(current[name]) - 1]
            trial = dict(current)
            trial[name] = narrower
            if evaluate(trial).cycle_time <= target_cycle_time:
                current[name] = narrower
            else:
                break
    performance = evaluate(current)
    return _result(system, volumes, current, performance, area_per_lane,
                   feasible=True)


def _result(system, volumes, widths, performance, area_per_lane, feasible):
    latencies = {
        name: transfer_latency(
            volumes[name], ChannelPhysics(elements_per_cycle=width)
        )
        for name, width in widths.items()
    }
    return WidthResult(
        widths=dict(widths),
        latencies=latencies,
        cycle_time=performance.cycle_time,
        wire_area=area_per_lane * sum(widths.values()),
        feasible=feasible,
    )
