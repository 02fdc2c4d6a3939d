"""The exact interleaving semantics the model checker explores.

The simulator (:mod:`repro.sim.engine`) is *timed*: it tracks local
clocks, transfer latencies, and payloads.  For deadlock, none of that
matters — whether a configuration can reach a state where every process
is blocked depends only on the *order* of communication statements and on
channel occupancies, never on how long anything takes.  This module
therefore projects the simulator's semantics onto its untimed skeleton:

* **State** — for every process, the index of its current communication
  statement (computation phases are invisible: a compute statement is
  always enabled, touches no channel, and commutes with everything, so
  the projection advances through it atomically); for every buffered
  channel, its occupancy (items currently queued).
* **Actions** — ``rdv(c)`` completes a rendezvous on channel ``c`` (both
  endpoint processes advance together — the joint-transition view of the
  blocking primitives); ``put(c)`` / ``get(c)`` are the two independent
  endpoint actions of a buffered channel (occupancy +1 / −1).

The state space is finite — ``Π_p |comm chain of p| × Π_c (cap_c + 1)``
— so plain reachability decides deadlock *exactly*, including for the
buffered/initial-token extension where the structural TMG argument of
:mod:`repro.tmg.deadlock` is the thing being cross-checked.

A load-bearing property of this transition system (proved as the
*diamond property* in ``docs/VERIFICATION.md``): an enabled action can
never be disabled by another action.  Rendezvous on distinct channels
never share a ready process (a process's current statement serves one
channel), and a buffered endpoint action only ever *helps* the opposite
endpoint.  Together with the diamond property (co-enabled actions
commute), persistence makes every single enabled action a stubborn set,
so the reduced search of :mod:`repro.verify.stubborn` fires one action
per state.

The search runs on integers.  :class:`TransitionSystem` numbers the
actions once, in ``(channel name, kind)`` order, and compiles the
lowered program into integer tables only: per action its endpoint
slots, buffer slot, capacity and occupancy change, per process slot its
pid and its chain of action ids, per buffer slot its cid.  Sorting ids
therefore sorts actions the way their names would.  Names are decoded
from the IR by index at the API boundary only:
:meth:`TransitionSystem.action` decodes an id to its :class:`Action`
(witnesses, symmetry maps), and
:meth:`~TransitionSystem.blocked_map` and
:meth:`~TransitionSystem.wait_for_edges` read a state's current
statements off the IR's op arrays.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import NamedTuple

from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir import OP_GET, LoweredIR, lower

#: A verification state: per-process communication-statement indices (in
#: the slot order of :attr:`TransitionSystem.pids`) followed by
#: per-buffered-channel occupancies (order of
#: :attr:`TransitionSystem.buffered_cids`).
State = tuple[tuple[int, ...], tuple[int, ...]]


class ActionKind(enum.Enum):
    """The three communication actions of the untimed semantics."""

    RENDEZVOUS = "rdv"
    PUT = "put"
    GET = "get"


class Action(NamedTuple):
    """One atomic step: a rendezvous, or one buffered endpoint."""

    kind: ActionKind
    channel: str

    def format(self) -> str:
        return f"{self.kind.value}({self.channel})"


_KIND_OF_DELTA = {
    0: ActionKind.RENDEZVOUS, 1: ActionKind.PUT, -1: ActionKind.GET,
}


class TransitionSystem:
    """The untimed transition system of one ``(system, ordering)`` pair.

    Processes whose chain has no communication statement (possible only
    for channel-less degenerate processes) take no part: they can always
    run, so they never contribute to a deadlock.

    Actions are dense ids ``0 .. n_actions - 1``; every integer table
    below is indexed by action id or by process *slot* (position in
    :attr:`pids`).  Channels connect two distinct processes
    (:meth:`repro.core.system.Channel.validate`), so each channel is the
    subject of exactly one statement of each endpoint, and a process is
    at its side of an action exactly when its current action is that id.
    """

    def __init__(self, system: SystemGraph, ordering: ChannelOrdering | None = None):
        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        #: The lowered program this transition system interprets.  The
        #: tables below are read off its op arrays, so sim, TMG, and
        #: verify all read one compilation.
        self.ir: LoweredIR = lower(system, self.ordering)
        ir = self.ir

        #: Per process slot: its pid.  Only processes with a
        #: communication statement have a slot.
        self.pids: tuple[int, ...] = tuple(
            pid for pid in range(ir.n_processes) if ir.comm_indices[pid]
        )
        slot_of_pid = {pid: slot for slot, pid in enumerate(self.pids)}
        #: Per buffer slot (a state's occupancy vector): its cid.
        #: Rendezvous channels are pure synchronizations with no state.
        self.buffered_cids: tuple[int, ...] = tuple(
            cid for cid in range(ir.n_channels) if ir.buffered[cid]
        )
        buffer_of_cid = {cid: b for b, cid in enumerate(self.buffered_cids)}
        self._initial_tokens: tuple[int, ...] = tuple(
            ir.initial_tokens[cid] for cid in self.buffered_cids
        )
        self._capacities: tuple[int, ...] = tuple(
            ir.effective_capacities[cid] for cid in self.buffered_cids
        )

        # Action ids in (channel name, kind) order, plus per channel the
        # id of its put-side and get-side action (the rendezvous id for
        # both when unbuffered).
        universe = sorted(
            (name, kind.value, cid, kind)
            for cid, name in enumerate(ir.channels)
            for kind in (
                (ActionKind.GET, ActionKind.PUT)
                if ir.buffered[cid]
                else (ActionKind.RENDEZVOUS,)
            )
        )
        put_id = [0] * ir.n_channels
        get_id = [0] * ir.n_channels
        cids: list[int] = []
        slots: list[tuple[int, ...]] = []
        deltas: list[int] = []
        for action, (_, _, cid, kind) in enumerate(universe):
            producer = slot_of_pid[ir.producers[cid]]
            consumer = slot_of_pid[ir.consumers[cid]]
            cids.append(cid)
            if kind is ActionKind.RENDEZVOUS:
                put_id[cid] = get_id[cid] = action
                slots.append((producer, consumer))
                deltas.append(0)
            elif kind is ActionKind.PUT:
                put_id[cid] = action
                slots.append((producer,))
                deltas.append(1)
            else:
                get_id[cid] = action
                slots.append((consumer,))
                deltas.append(-1)
        #: Per action: its channel id.
        self._action_cid: tuple[int, ...] = tuple(cids)
        #: Per action: the process slots it advances (producer, consumer
        #: for a rendezvous; the one endpoint for a buffered put/get).
        self.action_slots: tuple[tuple[int, ...], ...] = tuple(slots)
        #: Per action: its occupancy change (+1 put, -1 get, 0 rendezvous).
        self.action_delta: tuple[int, ...] = tuple(deltas)
        #: Per action: its slot in a state's occupancy vector (-1 for a
        #: rendezvous).
        self.action_buffer: tuple[int, ...] = tuple(
            buffer_of_cid[cid] if delta else -1
            for cid, delta in zip(cids, deltas)
        )
        #: Per action: the buffered channel's effective capacity (0 for a
        #: rendezvous).
        self.action_capacity: tuple[int, ...] = tuple(
            self._capacities[b] if b >= 0 else 0 for b in self.action_buffer
        )
        #: Per action: the actions besides the moved slots' new ones whose
        #: enabledness firing it can change: itself, or both sides of its
        #: buffer.
        self._touches: tuple[tuple[int, ...], ...] = tuple(
            (put_id[cid], get_id[cid]) if delta else (action,)
            for action, (cid, delta) in enumerate(zip(cids, deltas))
        )
        #: Per process slot: the action id of each communication statement,
        #: the only action that can advance the process from there.
        self.chain_actions: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                (get_id if ir.op_kinds[pid][i] == OP_GET else put_id)[
                    ir.op_args[pid][i]
                ]
                for i in ir.comm_indices[pid]
            )
            for pid in self.pids
        )
        #: Per process slot: statement index -> next statement index.
        self._next_index: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(1, len(chain))) + (0,) for chain in self.chain_actions
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    @cached_property
    def _actions(self) -> tuple[Action, ...]:
        """Every action decoded, by id (the kind from the occupancy
        change, the channel from the IR)."""
        channels = self.ir.channels
        return tuple(
            Action(_KIND_OF_DELTA[delta], channels[cid])
            for delta, cid in zip(self.action_delta, self._action_cid)
        )

    def action(self, action_id: int) -> Action:
        """Decode an action id."""
        return self._actions[action_id]

    def action_id(self, action: Action) -> int | None:
        """The id of ``action``, or ``None`` when the system has no such
        action (an unknown channel, or the wrong kind for it)."""
        return self._action_ids.get(action)

    @cached_property
    def _action_ids(self) -> dict[Action, int]:
        return {action: i for i, action in enumerate(self._actions)}

    @property
    def n_actions(self) -> int:
        return len(self.action_delta)

    # ------------------------------------------------------------------
    # States and transitions
    # ------------------------------------------------------------------

    def initial_state(self) -> State:
        """Every process at its first communication statement; buffered
        channels pre-loaded with their initial tokens."""
        return (
            tuple(0 for _ in self.pids),
            self._initial_tokens,
        )

    def enabled(self, state: State) -> tuple[int, ...]:
        """The ids of all enabled actions, ascending.

        Each process's current action is looked up once; a rendezvous is
        enabled when both endpoints are at it (reported once, from the
        producer), a put when its buffer has room, a get when its buffer
        holds an item.
        """
        indices, occupancies = state
        current = [chain[i] for chain, i in zip(self.chain_actions, indices)]
        slots = self.action_slots
        buffers = self.action_buffer
        deltas = self.action_delta
        enabled = []
        for slot, action in enumerate(current):
            delta = deltas[action]
            if not delta:
                producer, consumer = slots[action]
                if producer == slot and current[consumer] == action:
                    enabled.append(action)
            elif delta < 0:
                if occupancies[buffers[action]]:
                    enabled.append(action)
            elif occupancies[buffers[action]] < self.action_capacity[action]:
                enabled.append(action)
        enabled.sort()
        return tuple(enabled)

    def enabled_after(
        self, enabled: tuple[int, ...], action: int, state: State
    ) -> tuple[int, ...]:
        """The ids enabled in ``state``, reached by firing ``action`` from
        a state whose enabled ids were ``enabled``; equal to
        :meth:`enabled` of ``state``.

        Enabledness reads an action's endpoint slots and its buffer, and
        firing moves only the action's slots and buffer, so only the fired
        action, the moved slots' new current actions and both sides of the
        buffer are rechecked.
        """
        indices, occupancies = state
        chains, slots = self.chain_actions, self.action_slots
        touched = set(self._touches[action])
        for slot in slots[action]:
            touched.add(chains[slot][indices[slot]])
        result = [a for a in enabled if a not in touched]
        for candidate in touched:
            delta = self.action_delta[candidate]
            if not delta:
                producer, consumer = slots[candidate]
                if (chains[producer][indices[producer]] == candidate
                        == chains[consumer][indices[consumer]]):
                    result.append(candidate)
                continue
            (slot,) = slots[candidate]
            occupancy = occupancies[self.action_buffer[candidate]]
            if chains[slot][indices[slot]] == candidate and (
                occupancy if delta < 0
                else occupancy < self.action_capacity[candidate]
            ):
                result.append(candidate)
        result.sort()
        return tuple(result)

    def successor(self, state: State, action: int) -> State:
        """The state after firing action id ``action`` (must be enabled)."""
        indices = list(state[0])
        occupancies = state[1]
        for slot in self.action_slots[action]:
            indices[slot] = self._next_index[slot][indices[slot]]
        delta = self.action_delta[action]
        if delta:
            queued = list(occupancies)
            queued[self.action_buffer[action]] += delta
            occupancies = tuple(queued)
        return (tuple(indices), occupancies)

    # ------------------------------------------------------------------
    # Deadlock
    # ------------------------------------------------------------------

    def is_deadlock(self, state: State) -> bool:
        """True when some process is blocked and no action is enabled.

        A system with no communication statements at all never blocks —
        every process free-runs — so the empty transition system is
        vacuously deadlock-free rather than trivially dead.
        """
        if not self.pids:
            return False
        return not self.enabled(state)

    def _current(self, state: State) -> list[tuple[int, int]]:
        """``(pid, op index)`` of every communicating process's current
        statement, in slot order."""
        comm = self.ir.comm_indices
        return [
            (pid, comm[pid][index]) for pid, index in zip(self.pids, state[0])
        ]

    def blocked_map(self, state: State) -> dict[str, str]:
        """``process -> channel`` it is blocked on (every communicating
        process, in a deadlocked state)."""
        ir = self.ir
        return {
            ir.processes[pid]: ir.channels[ir.op_args[pid][i]]
            for pid, i in self._current(state)
        }

    def wait_for_edges(self, state: State) -> dict[str, str]:
        """The wait-for graph of a (deadlocked) state.

        A process stuck at a statement on channel ``c`` waits for the
        *other* endpoint of ``c`` to serve it: the producer for a blocked
        get, the consumer for a blocked put (a blocked buffered put waits
        on the consumer to free a slot; a blocked buffered get waits on
        the producer to queue an item — same edges).
        """
        ir = self.ir
        edges: dict[str, str] = {}
        for pid, i in self._current(state):
            cid = ir.op_args[pid][i]
            server = (
                ir.producers[cid] if ir.op_kinds[pid][i] == OP_GET
                else ir.consumers[cid]
            )
            edges[ir.processes[pid]] = ir.processes[server]
        return edges

    # ------------------------------------------------------------------

    def state_space_bound(self) -> int:
        """The a-priori product bound on reachable states."""
        bound = 1
        for chain in self.chain_actions:
            bound *= len(chain)
        for capacity in self._capacities:
            bound *= capacity + 1
        return bound
