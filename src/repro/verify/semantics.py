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
lowered program into per-action tables (endpoint slots, buffer slot,
capacity, occupancy change) and per-process chains of
action ids.  Sorting ids therefore sorts actions the way their names
would; :meth:`TransitionSystem.action` decodes an id to its
:class:`Action` at the API boundary (witnesses, symmetry maps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir import OP_GET, LoweredIR, lower

#: A verification state: per-process communication-statement indices (in
#: the order of :attr:`TransitionSystem.process_names`) followed by
#: per-buffered-channel occupancies (order of
#: :attr:`TransitionSystem.buffered_names`).
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


@dataclass(frozen=True)
class CommStatement:
    """One communication statement of a process's projected chain.

    ``chain_index`` is the 0-based position in the *full* statement chain
    (gets, compute, puts — the :class:`~repro.ir.program.LoweredIR` op
    order), kept so witnesses report the same statement numbering the
    lint witnesses use.
    """

    kind: str  # "get" | "put"
    channel: str
    chain_index: int




class TransitionSystem:
    """The untimed transition system of one ``(system, ordering)`` pair.

    Processes whose chain has no communication statement (possible only
    for channel-less degenerate processes) take no part: they can always
    run, so they never contribute to a deadlock.

    Actions are dense ids ``0 .. n_actions - 1``; every integer table
    below is indexed by action id or by process *slot* (position in
    :attr:`process_names`).  Channels connect two distinct processes
    (:meth:`repro.core.system.Channel.validate`), so each channel is the
    subject of exactly one statement of each endpoint, and a process is
    at its side of an action exactly when its current action is that id.
    """

    def __init__(self, system: SystemGraph, ordering: ChannelOrdering | None = None):
        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        #: The lowered program this transition system interprets.  The
        #: chains below are a direct decoding of its op arrays — the
        #: verifier no longer re-derives statement orders from the raw
        #: ordering, so sim, TMG, and verify all read one compilation.
        self.ir: LoweredIR = lower(system, self.ordering)
        ir = self.ir

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
        self._actions: tuple[Action, ...] = tuple(
            Action(kind, name) for name, _, _, kind in universe
        )
        self._action_ids: dict[Action, int] = {
            action: i for i, action in enumerate(self._actions)
        }
        put_id = [0] * ir.n_channels
        get_id = [0] * ir.n_channels
        for action, (_, _, cid, kind) in enumerate(universe):
            if kind is not ActionKind.GET:
                put_id[cid] = action
            if kind is not ActionKind.PUT:
                get_id[cid] = action

        #: Projected communication chains, only for processes that have one.
        self.chains: dict[str, tuple[CommStatement, ...]] = {}
        #: Full-chain lengths (for witness ``index/total`` reporting).
        self.chain_totals: dict[str, int] = {}
        chain_actions: list[tuple[int, ...]] = []
        slot_of_pid: dict[int, int] = {}
        for pid, process in enumerate(ir.processes):
            kinds = ir.op_kinds[pid]
            args = ir.op_args[pid]
            comm = ir.comm_indices[pid]
            if not comm:
                continue
            slot_of_pid[pid] = len(chain_actions)
            self.chains[process] = tuple(
                CommStatement(
                    kind="get" if kinds[i] == OP_GET else "put",
                    channel=ir.channels[args[i]],
                    chain_index=i,
                )
                for i in comm
            )
            self.chain_totals[process] = len(kinds)
            chain_actions.append(tuple(
                (get_id if kinds[i] == OP_GET else put_id)[args[i]]
                for i in comm
            ))
        self.process_names: tuple[str, ...] = tuple(self.chains)
        #: Per process slot: the action id of each communication statement,
        #: the only action that can advance the process from there.
        self.chain_actions: tuple[tuple[int, ...], ...] = tuple(chain_actions)
        #: Per process slot: statement index -> next statement index.
        self._next_index: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(1, len(chain))) + (0,) for chain in chain_actions
        )

        #: Buffered channels carry an occupancy dimension; rendezvous
        #: channels are pure synchronizations with no state of their own.
        buffered_cids = tuple(
            cid for cid in range(ir.n_channels) if ir.buffered[cid]
        )
        self.buffered_names: tuple[str, ...] = tuple(
            ir.channels[cid] for cid in buffered_cids
        )
        buffer_of_cid = {cid: slot for slot, cid in enumerate(buffered_cids)}
        self._initial_tokens: tuple[int, ...] = tuple(
            ir.initial_tokens[cid] for cid in buffered_cids
        )
        self._capacities: tuple[int, ...] = tuple(
            ir.effective_capacities[cid] for cid in buffered_cids
        )

        slots: list[tuple[int, ...]] = []
        buffers: list[int] = []
        deltas: list[int] = []
        for _, _, cid, kind in universe:
            producer = slot_of_pid[ir.producers[cid]]
            consumer = slot_of_pid[ir.consumers[cid]]
            if kind is ActionKind.RENDEZVOUS:
                slots.append((producer, consumer))
                buffers.append(-1)
                deltas.append(0)
            elif kind is ActionKind.PUT:
                slots.append((producer,))
                buffers.append(buffer_of_cid[cid])
                deltas.append(1)
            else:
                slots.append((consumer,))
                buffers.append(buffer_of_cid[cid])
                deltas.append(-1)
        #: Per action: the process slots it advances (producer, consumer
        #: for a rendezvous; the one endpoint for a buffered put/get).
        self.action_slots: tuple[tuple[int, ...], ...] = tuple(slots)
        #: Per action: its slot in a state's occupancy vector (-1 for a
        #: rendezvous).
        self.action_buffer: tuple[int, ...] = tuple(buffers)
        #: Per action: the buffered channel's effective capacity (0 for a
        #: rendezvous).
        self.action_capacity: tuple[int, ...] = tuple(
            self._capacities[b] if b >= 0 else 0 for b in buffers
        )
        #: Per action: its occupancy change (+1 put, -1 get, 0 rendezvous).
        self.action_delta: tuple[int, ...] = tuple(deltas)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def action(self, action_id: int) -> Action:
        """Decode an action id."""
        return self._actions[action_id]

    def action_id(self, action: Action) -> int | None:
        """The id of ``action``, or ``None`` when the system has no such
        action (an unknown channel, or the wrong kind for it)."""
        return self._action_ids.get(action)

    @property
    def n_actions(self) -> int:
        return len(self._actions)

    # ------------------------------------------------------------------
    # States and transitions
    # ------------------------------------------------------------------

    def initial_state(self) -> State:
        """Every process at its first communication statement; buffered
        channels pre-loaded with their initial tokens."""
        return (
            tuple(0 for _ in self.process_names),
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
        if not self.process_names:
            return False
        return not self.enabled(state)

    def _statements(self, state: State) -> list[tuple[str, CommStatement]]:
        return [
            (process, self.chains[process][index])
            for process, index in zip(self.process_names, state[0])
        ]

    def blocked_map(self, state: State) -> dict[str, str]:
        """``process -> channel`` it is blocked on (every communicating
        process, in a deadlocked state)."""
        return {
            process: statement.channel
            for process, statement in self._statements(state)
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
        for process, statement in self._statements(state):
            cid = ir.cid(statement.channel)
            server = (
                ir.consumers[cid] if statement.kind == "put" else ir.producers[cid]
            )
            edges[process] = ir.processes[server]
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
