"""Event traces for simulation debugging, reporting, and export.

The simulator emits one :class:`TraceEvent` per completed (or blocking)
statement to each of a run's *sinks* — objects with ``emit(event)`` and
``close()``, see :mod:`repro.obs.sinks` for the stock implementations
(in-memory, JSONL streaming, bounded ring buffer).  The engine builds a
lane's events only when that lane has a sink, so an unobserved
simulation builds none (guarded by
``benchmarks/test_bench_obs_overhead.py``).

Time base
---------

All event times share **one global virtual clock**: cycle 0 is the start
of the simulation, and every ``time`` is a completion time on that shared
axis.  Although each process keeps its own clock cursor, those cursors
only ever advance through rendezvous outcomes computed from *both*
endpoints' clocks, so timestamps are directly comparable across
processes (and exported traces align without per-process offsets).  What
*is* process-local is the final value of the cursor: a process's last
event time is the moment *it* finished its last statement, which can
differ between processes (a testbench source may run ahead of the sink).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Protocol


class TraceEvent(NamedTuple):
    """One simulator event (an immutable named tuple: runs emit many).

    Attributes:
        time: Completion time of the event on the shared simulation clock
            (cycle 0 = simulation start; comparable across processes — see
            the module docstring on the time base).  For ``block-*`` kinds
            it is the *arrival* time at the statement that blocked.
        kind: One of ``compute``, ``put``, ``get``, ``block-put``,
            ``block-get``.
        process: The process executing the statement.
        channel: The channel touched (``None`` for compute events).
        iteration: The process-local iteration the statement belongs to.
        duration: Busy cycles the event occupied ending at ``time``
            (``latency`` for compute events, 0 otherwise).
        wait: Stall cycles attributed to this completion — how long the
            process waited on the channel before its transfer could start.
            Summed per process this equals ``SimulationResult.stall_cycles``
            (property-tested in ``tests/obs``).
    """

    time: int
    kind: str
    process: str
    channel: str | None
    iteration: int
    duration: int = 0
    wait: int = 0


class TraceSink(Protocol):
    """Anything that accepts a stream of :class:`TraceEvent`.

    The stock sinks live in :mod:`repro.obs.sinks`; any object with this
    shape can be passed to :class:`Simulator` via ``sinks=...``.
    """

    def emit(self, event: TraceEvent) -> None: ...  # pragma: no cover

    def close(self) -> None: ...  # pragma: no cover


def format_trace(events: Iterable[TraceEvent], limit: int = 100) -> str:
    """Human-readable rendering of (the first ``limit``) trace events."""
    lines = []
    for i, event in enumerate(events):
        if i >= limit:
            lines.append(f"... ({i}+ events)")
            break
        where = f" {event.channel}" if event.channel else ""
        stalled = f" (+{event.wait} stalled)" if event.wait else ""
        lines.append(
            f"[{event.time:>8}] {event.process:<12} {event.kind}{where} "
            f"(iter {event.iteration}){stalled}"
        )
    return "\n".join(lines)
