"""Stall attribution: which channel each process spent its waiting on."""

from __future__ import annotations

from typing import Mapping


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
