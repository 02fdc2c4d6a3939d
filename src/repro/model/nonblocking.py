"""Non-blocking (FIFO-buffered) channel model — the tech-report extension.

The paper's footnotes 1–2 note that the approach also applies to
non-blocking primitives, with the model given in the companion technical
report.  The standard marked-graph model of a ``k``-deep FIFO channel
splits the single channel transition into two:

* a **put transition** (delay = the channel transfer latency) the producer
  synchronizes with, and
* a **get transition** (delay 0) the consumer synchronizes with,

joined by a *data place* (tokens = items initially in the FIFO) from put to
get, and a *credit place* (tokens = free slots = capacity − initial items)
from get to put.  That is exactly how :func:`repro.model.build.build_tmg`
models a buffered channel, so this builder only gives every channel a
capacity and delegates.  With ``capacity = 0`` the split model would
degenerate to a token-free two-transition loop, so rendezvous channels are
rejected here (use the blocking model for them).

The effect on performance is the classic one: FIFO slack decouples producer
and consumer iterations, breaking long serialization cycles at an area cost
— the same trade the paper's related-work section attributes to
dataflow-style designs with carefully sized FIFOs.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ValidationError
from repro.model.build import SystemTmg, build_tmg


def build_nonblocking_tmg(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
    default_capacity: int | None = None,
) -> SystemTmg:
    """Build the FIFO-channel TMG of a system.

    Args:
        system: The system; every channel must have ``capacity >= 1`` (or
            ``default_capacity`` must be given to supply one).
        ordering: Statement orders; defaults to declaration order.
        process_latencies: Optional per-process latency overrides.
        default_capacity: Capacity for channels declaring ``capacity == 0``.

    Raises:
        ValidationError: A channel has no buffering and no default was
            provided, or holds more initial tokens than its capacity, or
            a latency override is invalid.
    """
    capacities: dict[str, int] = {}
    for channel in system.channels:
        capacity = channel.capacity or (default_capacity or 0)
        if capacity < 1:
            raise ValidationError(
                f"channel {channel.name!r}: the non-blocking model needs "
                "capacity >= 1 (use the blocking model for rendezvous)"
            )
        if channel.initial_tokens > capacity:
            raise ValidationError(
                f"channel {channel.name!r}: initial_tokens "
                f"({channel.initial_tokens}) exceed capacity ({capacity})"
            )
        capacities[channel.name] = capacity
    return build_tmg(
        system.with_channel_capacities(capacities), ordering, process_latencies
    )
