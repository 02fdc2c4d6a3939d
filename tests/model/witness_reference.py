"""The name-based decodings of the marked graph: the oracles of the
index-based ones in :mod:`repro.model.build`.

``src/`` never parses a transition or place name.  These parsers are what
it used to do, kept to check that the index decodings
(:attr:`~repro.model.build.StructureEntry.circular_wait`,
``_Decoder.elements`` behind ``SystemPerformance.critical_processes`` and
``critical_channels``, ``_Decoder.credit_channels`` behind
``size_buffers``) say the same thing.
"""

from repro.model.build import (
    CHANNEL_PREFIX,
    CREDIT_SUFFIX,
    GET_SUFFIX,
    PROCESS_PREFIX,
    PUT_SUFFIX,
)
from repro.tmg.deadlock import _token_free_cycle


def critical_processes(cycle):
    """Processes whose computation transition lies on ``cycle``."""
    return tuple(
        name[len(PROCESS_PREFIX):]
        for name in cycle
        if name.startswith(PROCESS_PREFIX)
    )


def critical_channels(cycle):
    """Channels whose transition lies on ``cycle`` (put/get sides of a
    buffered channel map back to the channel; duplicates removed, in order
    of first appearance)."""
    seen = {}
    for name in cycle:
        if not name.startswith(CHANNEL_PREFIX):
            continue
        channel = name[len(CHANNEL_PREFIX):]
        for suffix in (PUT_SUFFIX, GET_SUFFIX):
            if channel.endswith(suffix):
                channel = channel[: -len(suffix)]
        seen[channel] = None
    return tuple(seen)


def credit_channels(places):
    """Channels whose credit place is among the place names ``places``."""
    return [
        place[: -len(CREDIT_SUFFIX)]
        for place in places
        if place.endswith(CREDIT_SUFFIX)
    ]


def transition_cycle(entry):
    """A structure's token-free cycle as transition names, or ``None``."""
    nodes = _token_free_cycle(entry.start, entry.target, entry.tokens)
    return None if nodes is None else [entry.names[u] for u in nodes]


def design_cycle(transitions):
    """A transition cycle decoded by name: each transition to its process
    or channel, the put and get sides of a buffered channel merged."""
    names = [
        (critical_processes((t,)) + critical_channels((t,)))[0]
        for t in transitions
    ]
    return tuple(n for j, n in enumerate(names) if n != names[j - 1])
