"""Reference Algorithm 1: the two-pass, name-keyed labeling.

The forward and backward traversals written out separately over
``SystemGraph`` lookups, as the library computed them before the single
integer-table pass of :mod:`repro.ordering.algorithm`.  Kept as the
differential oracle of ``tests/ordering/test_labeling_oracle.py``: both
must produce the same orderings, the same arc labels and the same
errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.system import ChannelOrdering, ProcessKind, SystemGraph
from repro.errors import DeadlockError, ValidationError


@dataclass
class ArcLabels:
    """Labels accumulated on one channel (arc) by the two passes."""

    head_weight: int | None = None
    head_timestamp: int | None = None
    tail_weight: int | None = None
    tail_timestamp: int | None = None


@dataclass
class ReferenceLabels:
    """Arc labels of a full forward+backward run, keyed by channel name."""

    labels: dict[str, ArcLabels] = field(default_factory=dict)

    def head(self, channel: str) -> tuple[int | None, int | None]:
        arc = self.labels[channel]
        return (arc.head_weight, arc.head_timestamp)

    def tail(self, channel: str) -> tuple[int | None, int | None]:
        arc = self.labels[channel]
        return (arc.tail_weight, arc.tail_timestamp)


def reference_ordering_with_labels(
    system: SystemGraph,
    initial_ordering: ChannelOrdering | None = None,
) -> tuple[ChannelOrdering, ReferenceLabels]:
    """Validate, Forward Labeling, Backward Labeling, Final Ordering."""
    if initial_ordering is None:
        initial_ordering = ChannelOrdering.declaration_order(system)
    else:
        initial_ordering.validate(system)
    labels = forward_labeling(system, initial_ordering)
    labels = backward_labeling(system, labels)
    return final_ordering(system, labels), labels


def forward_labeling(
    system: SystemGraph, initial_ordering: ChannelOrdering
) -> ReferenceLabels:
    """Forward Labeling (Algorithm 1, lines 6–21)."""
    result = ReferenceLabels({c.name: ArcLabels() for c in system.channels})
    timestamp = 1

    sum_out_latency = {
        p.name: sum(system.channel(c).latency for c in system.output_channels(p.name))
        for p in system.processes
    }
    gating_in = {
        p.name: sum(
            1
            for c in system.input_channels(p.name)
            if system.channel(c).initial_tokens == 0
        )
        for p in system.processes
    }
    visited_in: dict[str, int] = {p.name: 0 for p in system.processes}
    enqueued: set[str] = set()

    queue: deque[str] = deque()
    for process in system.processes:
        if process.kind is ProcessKind.SOURCE:
            queue.append(process.name)
            enqueued.add(process.name)
    for process in system.processes:
        if process.name not in enqueued and gating_in[process.name] == 0:
            queue.append(process.name)
            enqueued.add(process.name)
    if not queue:
        raise ValidationError(
            f"system {system.name!r} has no testbench source and no "
            "pre-loaded starting point for Forward Labeling"
        )

    while queue:
        x = queue.popleft()
        max_in = _max_weight(result, system.input_channels(x), head=True)
        weight = max_in + sum_out_latency[x] + system.process(x).latency
        for channel_name in initial_ordering.puts_of(x):
            channel = system.channel(channel_name)
            y = channel.consumer
            if channel.initial_tokens == 0:
                visited_in[y] += 1
            arc = result.labels[channel_name]
            arc.head_weight = weight
            arc.head_timestamp = timestamp
            timestamp += 1
            if y not in enqueued and visited_in[y] >= gating_in[y]:
                enqueued.add(y)
                queue.append(y)

    unreached = [p.name for p in system.processes if p.name not in enqueued]
    if unreached:
        raise DeadlockError(
            "forward labeling cannot reach processes "
            f"{sorted(unreached)}: they lie on a dependency cycle with no "
            "pre-loaded data, which deadlocks under every statement order",
            cycle=sorted(unreached),
        )
    return result


def backward_labeling(
    system: SystemGraph, result: ReferenceLabels
) -> ReferenceLabels:
    """Backward Labeling: in-arcs in ascending forward-timestamp order."""
    timestamp = 1

    sum_in_latency = {
        p.name: sum(system.channel(c).latency for c in system.input_channels(p.name))
        for p in system.processes
    }
    gating_out = {
        p.name: sum(
            1
            for c in system.output_channels(p.name)
            if system.channel(c).initial_tokens == 0
        )
        for p in system.processes
    }
    visited_out: dict[str, int] = {p.name: 0 for p in system.processes}
    enqueued: set[str] = set()

    queue: deque[str] = deque()
    for process in system.processes:
        if process.kind is ProcessKind.SINK:
            queue.append(process.name)
            enqueued.add(process.name)
    for process in system.processes:
        if process.name not in enqueued and gating_out[process.name] == 0:
            queue.append(process.name)
            enqueued.add(process.name)
    if not queue:
        raise ValidationError(
            f"system {system.name!r} has no testbench sink and no "
            "pre-loaded starting point for Backward Labeling"
        )

    while queue:
        x = queue.popleft()
        max_out = _max_weight(result, system.output_channels(x), head=False)
        weight = max_out + sum_in_latency[x] + system.process(x).latency
        in_arcs = sorted(
            system.input_channels(x),
            key=lambda name: result.labels[name].head_timestamp,
        )
        for channel_name in in_arcs:
            channel = system.channel(channel_name)
            w = channel.producer
            if channel.initial_tokens == 0:
                visited_out[w] += 1
            arc = result.labels[channel_name]
            arc.tail_weight = weight
            arc.tail_timestamp = timestamp
            timestamp += 1
            if w not in enqueued and visited_out[w] >= gating_out[w]:
                enqueued.add(w)
                queue.append(w)

    unreached = [p.name for p in system.processes if p.name not in enqueued]
    if unreached:
        raise DeadlockError(
            "backward labeling cannot reach processes "
            f"{sorted(unreached)}: they lie on a dependency cycle with no "
            "pre-loaded data, which deadlocks under every statement order",
            cycle=sorted(unreached),
        )
    return result


def final_ordering(
    system: SystemGraph, labels: ReferenceLabels
) -> ChannelOrdering:
    """Final Ordering (Algorithm 1, lines 24–34)."""
    gets: dict[str, tuple[str, ...]] = {}
    puts: dict[str, tuple[str, ...]] = {}
    for process in system.processes:
        gets[process.name] = tuple(
            sorted(system.input_channels(process.name), key=labels.head)
        )
        puts[process.name] = tuple(
            sorted(
                system.output_channels(process.name),
                key=lambda name: (
                    -labels.labels[name].tail_weight,
                    labels.labels[name].tail_timestamp,
                ),
            )
        )
    ordering = ChannelOrdering(gets=gets, puts=puts)
    ordering.validate(system)
    return ordering


def _max_weight(
    result: ReferenceLabels, channels: tuple[str, ...], head: bool
) -> int:
    """Maximum weight over the labeled arcs; unlabeled arcs count zero."""
    best = 0
    for channel_name in channels:
        arc = result.labels[channel_name]
        weight = arc.head_weight if head else arc.tail_weight
        if weight is not None:
            best = max(best, weight)
    return best
