"""The verifier's statements decoded by name (test oracle).

:class:`~repro.verify.semantics.TransitionSystem` holds integer tables
only, and decodes a state's current statements from the IR by index
(slot → pid → ``comm_indices`` → ``op_args``).  Before that it decoded
every chain into ``CommStatement`` objects up front; this module keeps
that decoding as the reference for :meth:`blocked_map`,
:meth:`wait_for_edges` and the witness text built from them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.ir import OP_GET
from repro.verify.semantics import State, TransitionSystem


@dataclass(frozen=True)
class CommStatement:
    """One communication statement of a process's projected chain."""

    kind: str  # "get" | "put"
    channel: str


_Chains = dict[str, tuple[CommStatement, ...]]

_decoded: weakref.WeakKeyDictionary[TransitionSystem, _Chains] = (
    weakref.WeakKeyDictionary()
)


def chains(ts: TransitionSystem) -> _Chains:
    """Every communicating process's chain, in pid order.  Decoded once
    per transition system: the search oracles ask for it per state."""
    decoded = _decoded.get(ts)
    if decoded is None:
        decoded = _decoded[ts] = _decode(ts)
    return decoded


def _decode(ts: TransitionSystem) -> _Chains:
    ir = ts.ir
    decoded: _Chains = {}
    for pid, process in enumerate(ir.processes):
        kinds, args = ir.op_kinds[pid], ir.op_args[pid]
        comm = ir.comm_indices[pid]
        if not comm:
            continue
        decoded[process] = tuple(
            CommStatement(
                kind="get" if kinds[i] == OP_GET else "put",
                channel=ir.channels[args[i]],
            )
            for i in comm
        )
    return decoded


def process_names(ts: TransitionSystem) -> tuple[str, ...]:
    """The communicating processes, in state-slot order."""
    return tuple(chains(ts))


def buffered_names(ts: TransitionSystem) -> tuple[str, ...]:
    """The buffered channels, in occupancy-slot order."""
    ir = ts.ir
    return tuple(
        name for cid, name in enumerate(ir.channels) if ir.buffered[cid]
    )


def statements(
    ts: TransitionSystem, state: State
) -> list[tuple[str, CommStatement]]:
    decoded = chains(ts)
    return [
        (process, decoded[process][index])
        for process, index in zip(decoded, state[0])
    ]


def blocked_map(ts: TransitionSystem, state: State) -> dict[str, str]:
    return {
        process: statement.channel
        for process, statement in statements(ts, state)
    }


def wait_for_edges(ts: TransitionSystem, state: State) -> dict[str, str]:
    ir = ts.ir
    edges: dict[str, str] = {}
    for process, statement in statements(ts, state):
        cid = ir.cid(statement.channel)
        server = (
            ir.consumers[cid] if statement.kind == "put" else ir.producers[cid]
        )
        edges[process] = ir.processes[server]
    return edges


class ReferenceDecoding:
    """What :func:`repro.verify.witness.decode_deadlock` reads of a
    transition system, answered by this module."""

    def __init__(self, ts: TransitionSystem):
        self.ordering = ts.ordering
        self._ts = ts

    def blocked_map(self, state: State) -> dict[str, str]:
        return blocked_map(self._ts, state)

    def wait_for_edges(self, state: State) -> dict[str, str]:
        return wait_for_edges(self._ts, state)
