"""The discrete-event simulation engine: a control walk, a clock replay.

This is the reproduction's substitute for RTL (or SystemC) simulation of
the synthesized system: every process runs its Fig. 2(b) FSM — blocking
gets in statement order, a computation phase of ``latency`` cycles,
blocking puts in order — and channels implement the vendor primitives'
rendezvous protocol cycle-accurately.  Because these are exactly the
semantics the Section 3 TMG abstracts, the measured steady-state period
must equal the analytic cycle time ``π(G)`` (tested in
``tests/integration``); unlike the TMG, the simulator also carries real
payloads (the MPEG-2 functional case study).

One pipeline runs the :class:`~repro.ir.LoweredIR` array program for one
lane (:class:`Simulator`) or for B lanes that share the structure and
the channel capacities (:class:`BatchSimulator`).  Which process runs,
where it blocks and which peer a transfer wakes depend only on opcodes
and queue occupancies, never on clocks, so :class:`_Walk` runs the
round-robin scheduler once without clocks and records every clock it
would compute as a max-plus tape entry; later runs of the same IR object
reuse a walk that found its period (the ``walk`` memo).  The control
state is finite: once it repeats, the schedule repeats, and every count
of the remaining run follows by arithmetic.  :class:`_Clocks` replays
the tape in every lane until the live clocks repeat up to a per-lane
shift, after which each later clock is a shifted copy (docs/THEORY.md
§4).  A result's tables are views of the run's shared arrays, computed
on first read.  The pre-IR interpreter in ``tests/sim/reference.py`` is
the differential oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, cast

import numpy as np

import repro.lint.engine  # noqa: F401  (``preflight``, looked up per run)
from repro.cache import MISS, memo
from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ReproError, SimulationDeadlock, SimulationError
from repro.ir import OP_COMPUTE, OP_PUT, LoweredIR, lower
from repro.obs.metrics import active, count
from repro.sim.trace import TraceEvent, TraceSink

#: A functional behaviour: ``(iteration, inputs by channel) -> outputs by
#: channel``.  Sources receive an empty mapping; sinks may return one.
Behavior = Callable[[int, Mapping[str, Any]], Mapping[str, Any]]

#: Replayed clocks are int64 below this exact bound: a batch lane that may
#: reach it is rejected, a scalar run switches to Python ints.
_INT64_LIMIT = 2**63

#: Trace event kinds, indexed by the walk's event codes.
_KINDS = ("compute", "put", "get", "block-put", "block-get")
_COMPUTE, _PUT, _GET, _BLOCK_PUT, _BLOCK_GET = range(5)

_BUDGET = ("simulation exceeded its step budget ({}); "
           "raise max_steps for very long transients")
#: Longest clock cyclicity sought; a longer one replays to the end, exactly.
_MAX_CYCLICITY = 32
#: Entries of control state kept while looking for a repeat (a filling
#: FIFO grows each snapshot); past it the walk runs to the end, exactly.
_SNAPSHOT_ROOM = 1 << 16
#: Walks that found their control period, by ``(id(ir), watched pid)``;
#: each keeps its IR alive, so the id is not reused while it is cached.
_WALKS = memo("walk", maxsize=4)


def token_behavior(iteration: int, inputs: Mapping[str, Any]) -> dict[str, Any]:
    """Default behaviour: pure synchronization, no payloads."""
    return {}


@dataclass
class SimulationResult:
    """Outcome of one simulation run.  The tables are read-only mappings
    computed on first read from the arrays the run shares between its
    lanes (each ``completion_times`` read is a fresh list); ``==``
    compares contents, also against plain dicts."""

    iterations: Mapping[str, int]
    times: Mapping[str, int]
    completion_times: Mapping[str, list[int]]
    compute_cycles: Mapping[str, int]
    stall_cycles: Mapping[str, int]
    channel_transfers: Mapping[str, int]
    sink_payloads: dict[str, list[Any]] = field(default_factory=dict)
    #: Per-process, per-channel stall cycles: which channel each process
    #: spent its waiting time on (``stall_cycles`` is the row sum).
    stall_breakdown: Mapping[str, Mapping[str, int]] = field(default_factory=dict)

    def measured_cycle_time(self, process: str) -> Fraction | None:
        """Average steady-state iteration period of ``process``.

        Uses the second half of the completion-time series so the start-up
        transient does not bias the estimate.  ``None`` if too short.
        """
        times = self.completion_times.get(process, [])
        if len(times) < 4:
            return None
        half = len(times) // 2
        span = times[-1] - times[half]
        steps = len(times) - 1 - half
        if steps <= 0 or span < 0:
            return None
        return Fraction(span, steps)


#: One lane's outcome: a result, or the deadlock that ended it (only
#: returned when running with ``on_deadlock="capture"``).
LaneOutcome = SimulationResult | SimulationDeadlock


class _Table(Mapping[str, Any]):
    """One lane's read-only view of a result table: ``row(id)`` computes
    the value of the name with that id each time it is read."""

    __slots__ = ("_ids", "_row")

    def __init__(self, ids: Mapping[str, int], row: Callable[[int], Any]):
        self._ids, self._row = ids, row

    def __getitem__(self, key: str) -> Any:
        return self._row(self._ids[key])

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self) -> tuple[Any, ...]:  # pickles and copies as a dict
        return dict, (dict(self.items()),)


class _Breakdown(Mapping[str, Mapping[str, int]]):
    """One lane's read-only stall breakdown, made by ``build()`` on first read."""

    def __init__(self, build: Callable[[], dict[str, Mapping[str, int]]]):
        self._build = build

    @cached_property
    def _rows(self) -> dict[str, Mapping[str, int]]:
        return self._build()

    def __getitem__(self, key: str) -> Mapping[str, int]:
        return self._rows[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return repr({name: dict(row) for name, row in self.items()})

    def __reduce__(self) -> tuple[Any, ...]:
        return dict, ({name: dict(row) for name, row in self.items()},)


@dataclass(frozen=True)
class BatchLane:
    """Per-lane overrides: exactly what DSE varies between neighbors.

    Attributes:
        process_latencies: Compute-latency overrides by process name
            (unlisted processes keep their declared latency).  Latencies
            never change the schedule: any mix shares one lock-step run.
        channel_capacities: FIFO-capacity overrides by channel name.
            Capacities gate blocking, so each distinct signature is one
            more lock-step run.
        sinks: Trace sinks receiving this lane's events exactly as
            :class:`Simulator` would emit them.
    """

    process_latencies: Mapping[str, int] | None = None
    channel_capacities: Mapping[str, int] | None = None
    sinks: Sequence[TraceSink] = ()


def default_watch(system: SystemGraph) -> str:
    """The process whose iterations a run counts: the first sink, else
    the first process."""
    sinks = system.sinks()
    return sinks[0].name if sinks else system.process_names[0]


class _Proc:
    """Mutable per-process control state; ``time`` is a tape slot."""

    __slots__ = ("pid", "name", "ops", "args", "n", "behavior", "time",
                 "index", "iteration", "blocked_on", "computes",
                 "completions", "inputs", "outputs", "sink_list")

    def __init__(self, pid: int, name: str, ir: LoweredIR, behavior: Behavior,
                 sink_list: list[Any] | None):
        self.pid, self.name, self.behavior = pid, name, behavior
        self.ops, self.args = ir.op_kinds[pid], ir.op_args[pid]
        self.n = len(self.ops)
        self.time = self.index = self.iteration = self.computes = 0
        self.blocked_on = -1  # channel id while waiting, -1 when runnable
        self.completions: list[int] = []  # slot of each completed iteration
        self.inputs: dict[str, Any] = {}
        self.outputs: dict[str, Any] = {}
        self.sink_list = sink_list


class _Walk:
    """The control walk: the round-robin scheduler with the clocks left out.

    Each clock the scheduler would compute becomes a tape slot ``s = (a, b,
    d)`` with ``T[s] = max(T[a], T[b]) + delay[d]``; delay rows are the
    process latencies (row ``pid``), the channel latencies (row ``n_procs
    + cid``) and zero (the last row), and slot 0 is the zero clock.
    Process clocks and queue entries are slots.  Every event is logged as
    ``(kind, pid, cid, iteration, slot, arrival, const)``: a put or get
    waited ``T[slot] - const - T[arrival]``, other events log ``arrival =
    slot``, ``const = 0``.  Payloads follow their channel's FIFO order.
    Queues are kept per side (0 = put, 1 = get) and channel id: ``avail``
    holds what an arrival pairs with (a FIFO credit or item, or the peer's
    pending rendezvous arrival), ``waiting`` the blocked arrivals.
    """

    def __init__(self, engine: _Engine, sink_payloads: dict[str, list[Any]]):
        ir = self.ir = engine.ir
        n_c = self.n_c = ir.n_channels
        self.functional = engine.functional
        self.zero_row = len(ir.processes) + n_c
        self.tape = [(0, 0, self.zero_row)]  # (a, b, d) per slot
        self.log: list[tuple[int, int, int, int, int, int, int]] = []
        self.transfers = [0] * n_c
        self.avail: list[list[deque[int]]] = [[], []]
        self.waiting: list[list[deque[int]]] = [[], []]
        for cid in range(n_c):
            tokens = ir.initial_tokens[cid]
            credits = deque([0] * (ir.effective_capacities[cid] - tokens))
            items = deque([0] * tokens)
            # Both empty for a rendezvous: a put waits where the get looks.
            queues = ((credits, items, deque[int](), deque[int]())
                      if ir.buffered[cid] else (items, credits, credits, items))
            for side in (0, 1):
                self.avail[side].append(queues[side])
                self.waiting[side].append(queues[2 + side])
        self.queues = [q for table in self.avail + self.waiting for q in table]
        self.payloads = [deque(p) for p in engine.preload]
        self.procs = [
            _Proc(pid, name, ir, engine.behaviors.get(name, token_behavior),
                  sink_payloads.get(name))
            for pid, name in enumerate(ir.processes)
        ]
        self.marks: list[list[int]] = []  # see _mark, per watched iteration
        self.period: tuple[int, int, Any] | None = None  # (j, k, the state)
        self.steps = 0

    def run(self, iterations: int, watch_pid: int, budget: int,
            full: bool) -> None:
        """Walk until ``watch_pid`` completes ``iterations`` loops or,
        unless ``full``, until the control state repeats."""
        procs, marks = self.procs, self.marks
        watched = procs[watch_pid]
        runnable: deque[int] = deque(range(len(procs)))
        marks.append(self._mark(0))
        seen = {self._state(runnable): 0}
        steps, room = 0, _SNAPSHOT_ROOM
        while watched.iteration < iterations:
            if not runnable:
                self.steps = steps
                self._raise_deadlock()
            steps += 1
            if steps > budget:
                raise SimulationError(_BUDGET.format(budget))
            pid = runnable.popleft()
            proc = procs[pid]
            self._advance(proc, runnable)
            if proc.blocked_on < 0:
                # The process stopped at an iteration boundary, not on a
                # channel: keep it runnable (round-robin fairness).
                runnable.append(pid)
            if (watched.iteration == len(marks) and self.period is None
                    and room > 0):
                marks.append(self._mark(steps))
                state = self._state(runnable)
                room -= len(procs) + sum(len(queue) for _, queue in state[2])
                first = seen.setdefault(state, len(marks) - 1)
                if first < len(marks) - 1:
                    self.period = (first, len(marks) - 1, state)
                    if not full:
                        break
        self.steps = steps

    def _mark(self, steps: int) -> list[int]:
        """Steps, slots, events; per pid iterations, computes, clock slot."""
        procs = self.procs
        return ([steps, len(self.tape), len(self.log)]
                + [p.iteration for p in procs] + [p.computes for p in procs]
                + [p.time for p in procs] + self.transfers)

    def _state(self, runnable: deque[int]) -> Any:
        """The exact control state, every clock as its offset from the
        slot count: equal states schedule identically from here on."""
        now = len(self.tape)
        return (
            tuple(runnable),
            tuple((p.index, p.blocked_on, now - p.time) for p in self.procs),
            tuple((k, tuple(now - s for s in queue))
                  for k, queue in enumerate(self.queues) if queue),
        )

    def _advance(self, proc: _Proc, runnable: deque[int]) -> None:
        """Run one process until it blocks or completes a loop (stopping at
        iteration boundaries keeps the runnable queue round-robin, so no
        free-running testbench source monopolizes the engine)."""
        if proc.blocked_on >= 0:
            return
        ir, tape = self.ir, self.tape
        while True:
            i = proc.index
            op = proc.ops[i]
            if op == OP_COMPUTE:
                if self.functional:
                    produced = proc.behavior(proc.iteration, dict(proc.inputs))
                    proc.outputs = dict(produced) if produced else {}
                tape.append((proc.time, proc.time, proc.pid))
                t = proc.time = len(tape) - 1
                proc.computes += 1
                self.log.append((_COMPUTE, proc.pid, -1, proc.iteration, t, t, 0))
                self._step(proc)
            else:
                cid = proc.args[i]
                side = int(op != OP_PUT)
                t = proc.time
                if self.functional and not side:
                    self.payloads[cid].append(proc.outputs.get(ir.channels[cid]))
                ready = self.avail[side][cid]
                if not ready:
                    self.waiting[side][cid].append(t)
                    proc.blocked_on = cid
                    self.log.append((_BLOCK_PUT + side, proc.pid, cid,
                                     proc.iteration, t, t, 0))
                    return
                other = ready.popleft()
                done = self._pair(proc, cid, side, t, other)
                self._step(proc)
                if ir.buffered[cid]:
                    # The new item (credit) may wake a blocked get (put).
                    self.avail[1 - side][cid].append(done)
                    self._wake(cid, 1 - side, runnable)
                else:
                    # Rendezvous: the peer waiting on its side completes too.
                    peer = self._unblock(cid, 1 - side)
                    self._finish(peer, cid, done, other,
                                 ir.channel_latencies[cid], _GET - side)
                    self._step(peer)
                    runnable.append(peer.pid)
            if i + 1 == proc.n:
                return

    def _pair(self, proc: _Proc, cid: int, side: int, arrival: int,
              other: int) -> int:
        """Complete ``proc``'s arrival on ``side`` of ``cid`` against
        ``other``; return the completion slot.  A put or a rendezvous is a
        transfer and takes the channel latency; a FIFO get waits only."""
        paid = not side or not self.ir.buffered[cid]
        row = self.zero_row - self.n_c + cid if paid else self.zero_row
        self.tape.append((arrival, other, row))
        done = len(self.tape) - 1
        self.transfers[cid] += paid
        self._finish(proc, cid, done, arrival,
                     self.ir.channel_latencies[cid] if paid else 0, _PUT + side)
        return done

    def _finish(self, proc: _Proc, cid: int, done: int, arrival: int,
                const: int, kind: int) -> None:
        """``proc``'s transfer on ``cid`` completed at slot ``done``."""
        proc.time = done
        if kind == _GET and self.functional:
            payload = self.payloads[cid].popleft()
            proc.inputs[self.ir.channels[cid]] = payload
            if proc.sink_list is not None and payload is not None:
                proc.sink_list.append(payload)
        self.log.append((kind, proc.pid, cid, proc.iteration, done, arrival,
                         const))

    def _step(self, proc: _Proc) -> None:
        """Move past the current statement; wrap bumps the iteration."""
        i = proc.index + 1
        if i == proc.n:
            proc.index = 0
            proc.iteration += 1
            proc.completions.append(proc.time)
            if self.functional:
                proc.inputs = {}
        else:
            proc.index = i

    def _unblock(self, cid: int, side: int) -> _Proc:
        """The process blocked on ``side`` of ``cid``, made runnable."""
        ir = self.ir
        proc = self.procs[(ir.producers, ir.consumers)[side][cid]]
        if proc.blocked_on != cid:
            was = ir.channels[proc.blocked_on] if proc.blocked_on >= 0 else None
            raise SimulationError(
                f"protocol violation on {ir.channels[cid]!r}: {proc.name!r} "
                f"completed a {_KINDS[_PUT + side]} it was not waiting for "
                f"(blocked on {was!r})"
            )
        proc.blocked_on = -1
        return proc

    def _wake(self, cid: int, side: int, runnable: deque[int]) -> None:
        """Complete the oldest blocked arrival on ``side`` of FIFO ``cid``
        if it can pair now; what it leaves may wake the other side."""
        waiting = self.waiting[side][cid]
        ready = self.avail[side][cid]
        if waiting and ready:
            proc = self._unblock(cid, side)
            done = self._pair(proc, cid, side, waiting.popleft(), ready.popleft())
            self._step(proc)
            runnable.append(proc.pid)
            self.avail[1 - side][cid].append(done)
            self._wake(cid, 1 - side, runnable)

    def _raise_deadlock(self) -> None:
        """Diagnose and raise the runtime deadlock: everyone is blocked
        (in every lane at once: the schedule is shared), so following each
        process to the peer it waits for closes a circular wait."""
        ir, procs = self.ir, self.procs
        waiting = {p.name: ir.channels[p.blocked_on] for p in procs}
        path: dict[int, int] = {}  # pid -> position, from pid 0
        pid = 0
        while pid not in path:
            path[pid] = len(path)
            cid = procs[pid].blocked_on
            ends = (ir.producers[cid], ir.consumers[cid])
            pid = ends[ends[0] == pid]
        detail = ", ".join(f"{p} on {c}" for p, c in sorted(waiting.items()))
        raise SimulationDeadlock(
            f"simulation deadlock: all runnable processes are blocked ({detail})",
            cycle=[ir.processes[p] for p in list(path)[path[pid]:]],
            waiting=waiting)


class _Clocks:
    """The tape's clocks in every lane, replayed only as far as needed.

    Slots ``1 .. start-1`` are the prefix; from ``start`` on, the tape
    repeats block ``start .. stop-1``, copy by copy ``width = stop - start``
    slots later.  One lane follows the tape slot by slot (:func:`_follow`),
    B lanes sweep it level by level into a ``(slots, lanes)`` array, until
    the live clocks at a block boundary equal those ``c`` boundaries back
    plus one ``λ`` per lane; max-plus homogeneity then gives ``T[s +
    c·width] = T[s] + λ`` for every later slot (used by :meth:`at`).
    Without such a period the replay runs to ``end``.  ``dtype`` is int64,
    or object (exact ints) once a bound reaches 2**63.
    """

    def __init__(self, walk: _Walk, start: int, stop: int, end: int,
                 live: Sequence[int], delays: list[list[int]], dtype: Any):
        width, lanes = stop - start, len(delays[0])
        delay = [row[0] for row in delays]
        if lanes == 1:
            values: Any = [0]
            _follow(values, walk.tape, 1, start, 0, delay)
        else:
            tape = np.array(walk.tape, dtype=np.int64)
            table = np.array(delays, dtype=dtype)
            values = np.zeros((start + width, lanes), dtype=dtype)
            _sweep(values, _levels(tape, 1, start), table, 0)
            plan = _levels(tape, start, stop)
        offsets = np.array(live, dtype=np.int64)
        history: deque[Any] = deque(maxlen=_MAX_CYCLICITY + 1)
        self.period: tuple[int, int, Any] | None = None
        m = 0
        while True:
            top = start + m * width
            history.append(values[top - offsets] if lanes > 1 else np.array(
                [[values[top - o]] for o in live], dtype=dtype))
            for c in range(1, len(history)):  # the smallest c that fits
                diff = history[-1] - history[-1 - c]
                if (diff == diff[0]).all():
                    self.period = (start + (m - c) * width, c * width, diff[0])
                    break
            if self.period is not None or top >= end:
                break
            if lanes == 1:
                _follow(values, walk.tape, start, stop, m * width, delay)
            else:
                if len(values) < top + width:
                    values = np.concatenate(
                        [values, np.zeros_like(values[:4 * width])])
                _sweep(values, plan, table, m * width)
            m += 1
        self.values = (values[:top].copy() if lanes > 1  # not the spare rows
                       else np.array(values, dtype=dtype).reshape(-1, 1))

    def at(self, slots: Any) -> Any:
        """Clocks at ``slots``, ``(len(slots), lanes)``."""
        s = np.asarray(slots, dtype=np.int64)
        if self.period is None:
            return self.values[s]
        base, span, shift = self.period
        copies = np.maximum(s - base, 0) // span
        return self.values[s - copies * span] + copies[:, None] * shift


def _follow(clock: list[int], tape: list[tuple[int, int, int]], lo: int,
            hi: int, shift: int, delay: list[int]) -> None:
    """One lane: append slots ``lo .. hi-1``, shifted by ``shift``, to ``clock``."""
    append = clock.append
    for a, b, d in tape[lo:hi]:
        x, y = clock[a + shift], clock[b + shift]
        append((x if x > y else y) + delay[d])


def _levels(tape: Any, lo: int, hi: int) -> list[tuple[Any, ...]]:
    """Slots ``lo .. hi-1`` grouped by dependency level (reads below
    ``lo`` are ready): per level, ``(slots, reads a, reads b, delay rows)``."""
    level = [0] * (hi - lo)
    for i, (x, y) in enumerate((tape[lo:hi, :2] - lo).tolist()):
        level[i] = 1 + max(level[x] if x >= 0 else 0, level[y] if y >= 0 else 0)
    depth = np.array(level, dtype=np.int64)
    order = np.argsort(depth, kind="stable")
    cuts = np.cumsum(np.bincount(depth)).tolist()
    columns = (order + lo, *tape[lo:hi][order].T)
    return [tuple(c[i:j] for c in columns) for i, j in zip(cuts, cuts[1:])]


def _sweep(clock: Any, plan: list[tuple[Any, ...]], table: Any, shift: int) -> None:
    """Replay ``plan`` level by level into ``clock``, shifted by ``shift``."""
    for slots, a, b, rows in plan:
        if shift:
            slots, a, b = slots + shift, a + shift, b + shift
        clock[slots] = np.maximum(clock[a], clock[b]) + table[rows]


def _unroll(items: Any, lo: int, hi: int, part: int, copies: int,
            step: Any) -> Any:
    """A logged column over the whole run: ``items[:lo]``, then
    ``items[lo:hi] + t·step`` for t < copies, ``items[lo:part] + copies·step``."""
    x = np.asarray(items, dtype=np.int64)
    step = np.broadcast_to(np.asarray(step, dtype=np.int64), x.shape)
    t = np.arange(copies, dtype=np.int64)[:, None]
    return np.concatenate([x[:lo], (x[lo:hi] + t * step[lo:hi]).ravel(),
                           x[lo:part] + copies * step[lo:part]])


def _columns(log: list[tuple[int, ...]]) -> Any:
    """A walk's event log as seven int64 columns."""
    flat = np.fromiter(chain.from_iterable(log), np.int64, 7 * len(log))
    return flat.reshape(-1, 7).T


def _periodic_sum(term: Callable[[int], Any], count: int, start: int,
                  period: int) -> Any:
    """``Σ term(t)`` over ``t < count``, given ``term(t + period) ==
    term(t)`` from ``t = start`` on."""
    head = min(count, start)
    total: Any = sum(term(t) for t in range(head))
    if count > head:
        full, rest = divmod(count - head, period)
        cycle = [term(head + i) for i in range(min(period, count - head))]
        total = total + full * sum(cycle) + sum(cycle[:rest])
    return total


class _Run:
    """One finished run: its final counts, replayed clocks and event log,
    shared by every lane's :class:`SimulationResult`.  Each table is
    computed for all lanes the first time any lane reads it; nothing here
    refers back to the walk or the engine.  ``marks`` are the walk marks
    ``(lo, hi, part)`` of the control period, ``q`` its copies."""

    def __init__(self, ir: LoweredIR, latencies: list[list[int]],
                 clocks: _Clocks, walk: _Walk, marks: tuple[list[int], ...],
                 final: list[int], q: int, n_lanes: int,
                 payloads: dict[str, list[Any]]):
        n_p = len(ir.processes)
        self.ir, self.latencies, self.clocks = ir, latencies, clocks
        self.marks, self.q, self.n_lanes = marks, q, n_lanes
        self.width = marks[1][1] - marks[0][1]
        self.counts, self.computes, self.clock_slots = (
            final[3 + i * n_p:3 + (i + 1) * n_p] for i in range(3))
        self.transfers = final[3 + 3 * n_p:]
        self.completions = [p.completions for p in walk.procs]
        self.payloads = payloads
        self._log: list[Any] | None = walk.log  # until stall_table reads it
        self._completion_clocks: dict[int, Any] = {}

    def lane(self, li: int) -> SimulationResult:
        """Lane ``li``'s result, a view of this run's tables."""
        procs = self.ir.process_index
        return SimulationResult(
            iterations=_Table(procs, self.counts.__getitem__),
            times=_Table(procs, lambda pid: self.times[pid][li]),
            completion_times=_Table(
                procs, lambda pid: self.completion_clocks(pid)[li].tolist()),
            compute_cycles=_Table(procs, lambda pid: self.compute_cycles[pid][li]),
            stall_cycles=_Table(procs, lambda pid: self.stall_cycles[pid][li]),
            channel_transfers=_Table(self.ir.channel_index,
                                     self.transfers.__getitem__),
            sink_payloads={k: list(v) for k, v in self.payloads.items()},
            stall_breakdown=_Breakdown(lambda: self.breakdown(li)),
        )

    @cached_property
    def times(self) -> list[list[int]]:
        """Per pid, per lane: the final clock."""
        return cast(list[list[int]], self.clocks.at(self.clock_slots).tolist())

    @cached_property
    def compute_cycles(self) -> list[list[int]]:
        """Per pid, per lane: the cycles spent computing."""
        return [[lat * n for lat in row]
                for row, n in zip(self.latencies, self.computes)]

    @cached_property
    def paid(self) -> list[int]:
        """Per pid: the channel latencies of its puts and rendezvous gets."""
        ir = self.ir
        paid = [0] * len(ir.processes)
        for cid, n in enumerate(self.transfers):
            cost = ir.channel_latencies[cid] * n
            paid[ir.producers[cid]] += cost
            if not ir.buffered[cid]:
                paid[ir.consumers[cid]] += cost
        return paid

    @cached_property
    def stall_cycles(self) -> list[list[int]]:
        """Per pid, per lane: a process's clock is its compute cycles, the
        channel latencies it paid and its waits, so the waits are the rest
        (docs/THEORY.md §4b)."""
        return [[time - cycles - paid for time, cycles in zip(times, computes)]
                for times, computes, paid in zip(self.times, self.compute_cycles,
                                                 self.paid)]

    def completion_clocks(self, pid: int) -> Any:
        """``(lanes, completed iterations)``: each completion's clock."""
        clocks = self._completion_clocks.get(pid)
        if clocks is None:
            lo, hi, part = (mark[3 + pid] for mark in self.marks)
            slots = _unroll(self.completions[pid], lo, hi, part, self.q, self.width)
            clocks = self._completion_clocks[pid] = self.clocks.at(slots).T
        return clocks

    def totals(self) -> tuple[int, int, int, int]:
        """Iterations, transfers, compute and stall cycles, summed over
        every process (channel) and lane without building a lane's table."""
        lanes = self.n_lanes
        compute = sum(n * sum(row) for row, n in zip(self.latencies, self.computes))
        stalls = sum(map(sum, self.times)) - compute - lanes * sum(self.paid)
        return lanes * sum(self.counts), lanes * sum(self.transfers), compute, stalls

    @cached_property
    def stall_table(self) -> tuple[list[tuple[str, str]], list[list[int]]]:
        """The ``(process, channel)`` pairs that waited and, per lane, their
        summed waits: the prefix, ``q`` copies of the period's waits (periodic
        in the copy past the clock period's base), the partial last period."""
        ir, clocks, q, width = self.ir, self.clocks, self.q, self.width
        lo, hi, part = self.marks
        n_c = ir.n_channels
        log = _columns(self._log or [])
        self._log = None
        head, block, tail = (
            rows[:, (rows[0] == _PUT) | (rows[0] == _GET)]
            for rows in (log[:, :lo[2]], log[:, lo[2]:hi[2]], log[:, lo[2]:part[2]])
        )

        def waits(rows: Any, copy: int) -> Any:
            done = clocks.at(rows[4] + copy * width)
            done -= clocks.at(rows[5] + copy * width)
            return done - rows[6][:, None]

        start, cycle = q, 1
        if clocks.period is not None and block.size:
            base, span, _ = clocks.period
            start = min(q, max(0, -((int(block[5].min()) - base) // width)))
            cycle = span // width
        keys = np.flatnonzero(np.bincount((log[1] * n_c + log[2])[log[2] >= 0]))
        stalls = np.zeros((len(keys), self.n_lanes), dtype=clocks.values.dtype)
        for rows, total in (
            (head, waits(head, 0)),
            (block, _periodic_sum(lambda t: waits(block, t), q, start, cycle)),
            (tail, waits(tail, q)),
        ):
            np.add.at(stalls, np.searchsorted(keys, rows[1] * n_c + rows[2]), total)
        pairs = [(ir.processes[k // n_c], ir.channels[k % n_c])
                 for k in keys.tolist()]
        return pairs, stalls.T.tolist()

    def breakdown(self, li: int) -> dict[str, Mapping[str, int]]:
        """Lane ``li``'s nonzero waits by process, then channel."""
        pairs, lanes = self.stall_table
        rows: dict[str, dict[str, int]] = {}
        for (name, channel), value in zip(pairs, lanes[li]):
            if value:
                rows.setdefault(name, {})[channel] = value
        return {name: MappingProxyType(row) for name, row in rows.items()}


class _Engine:
    """One lowered program with one latency row per lane: validated up
    front; each :meth:`run` walks the control once and replays every
    lane's clocks into a :class:`_Run`.  ``lane_ids`` (batch runs) name
    lanes in messages and reject a lane whose clocks may reach 2**63."""

    def __init__(self, system: SystemGraph, ir: LoweredIR,
                 latencies: Sequence[Mapping[str, int] | None],
                 lane_ids: Sequence[int] | None = None,
                 behaviors: Mapping[str, Behavior] | None = None,
                 initial_payloads: Mapping[str, tuple[Any, ...]] | None = None):
        self.system, self.ir, self.lane_ids = system, ir, lane_ids
        self.behaviors = behaviors or {}
        payloads = initial_payloads or {}
        # Payload staging only runs when someone supplies payloads.
        self.functional = bool(behaviors) or bool(payloads)
        declared = system.process_latencies()
        for li, override in enumerate(latencies):
            where = f"lane {lane_ids[li]}: " if lane_ids is not None else ""
            unknown = sorted(n for n in override or () if n not in declared)
            if unknown:
                raise SimulationError(
                    f"{where}latency override for unknown process(es) "
                    f"{', '.join(repr(u) for u in unknown)}")
            for name, latency in (override or {}).items():
                if latency < 0:
                    raise SimulationError(f"{where}process {name!r}: latency "
                                          f"must be >= 0, got {latency}")
        #: Per pid, per lane compute latency (Python ints).
        self.latencies = [
            [(override or {}).get(name, declared[name]) for override in latencies]
            for name in ir.processes
        ]
        self.preload: list[list[Any]] = []
        for cid, channel in enumerate(ir.channels):
            preload = list(payloads.get(channel, ()))
            tokens = ir.initial_tokens[cid]
            if not ir.buffered[cid] and preload:
                raise SimulationError(f"channel {channel!r}: rendezvous "
                                      "channels cannot carry initial payloads")
            if len(preload) > tokens:
                raise SimulationError(
                    f"channel {channel!r}: more initial payloads "
                    f"({len(preload)}) than initial tokens ({tokens})")
            self.preload.append(preload + [None] * (tokens - len(preload)))

    def run(self, iterations: int, watch: str, max_steps: int | None,
            sinks: Sequence[tuple[TraceSink, ...]]) -> _Run:
        """Advance every lane until ``watch`` completes ``iterations``
        loops; a deadlock of the shared control path ends all lanes.
        ``sinks`` holds each lane's trace sinks (empty: untraced)."""
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        ir = self.ir
        watch_pid = ir.process_index.get(watch)
        if watch_pid is None:
            raise SimulationError(f"unknown watch process {watch!r}")
        n_p, n_c, n_lanes = len(ir.processes), ir.n_channels, len(sinks)
        payloads: dict[str, list[Any]] = {p.name: [] for p in self.system.sinks()}
        traced = [(li, lane) for li, lane in enumerate(sinks) if lane]
        budget = max_steps or 40 * (iterations + 4) * (n_p + n_c) + 1000
        delays = (self.latencies + [[lat] * n_lanes for lat in ir.channel_latencies]
                  + [[0] * n_lanes])
        # Latencies never change the schedule: a walk of this IR object whose
        # period mark and steps fit this run is the walk this run would take.
        key = (id(ir), watch_pid)
        walk: Any = MISS if self.functional else _WALKS.get(key)
        if (walk is MISS or walk.ir is not ir or walk.steps > budget
                or walk.period[1] > iterations):
            walk = _Walk(self, payloads)
            try:
                # Behaviors run every iteration, so a functional walk goes
                # on to the end; its clocks still extrapolate.
                walk.run(iterations, watch_pid, budget, full=self.functional)
            except ReproError:
                self.steps = walk.steps
                if traced:  # stream what the walk reached before it failed
                    end, events = len(walk.tape), len(walk.log)
                    _emit(ir, _Clocks(walk, end, end, end, (), delays, object),
                          _columns(walk.log), (events, events, events, 0, 0, 0),
                          self.latencies, traced)
                raise
            if walk.period is not None and not self.functional:
                _WALKS.put(key, walk)

        # The rest of the run by arithmetic: watched iteration N is
        # j + r + q·(k - j), and each control period k - j advances every
        # counter and slot by the same amount.
        lo = hi = part = walk._mark(walk.steps)  # the walk ran to the end
        q, live = 0, []
        if walk.period is not None:
            j, k, state = walk.period
            q, r = divmod(iterations - j, k - j)
            lo, hi, part = walk.marks[j], walk.marks[k], walk.marks[j + r]
            live = [p[2] for p in state[1]] + [o for _, qu in state[2] for o in qu]
        final = [x + q * (y - z) for x, y, z in zip(part, hi, lo)]
        if final[0] > budget:
            raise SimulationError(_BUDGET.format(budget))
        self.steps = final[0]
        width = hi[1] - lo[1]
        computes, transfers = final[3 + n_p:3 + 2 * n_p], final[3 + 3 * n_p:]

        # A clock is a path sum of tape delays, so their total bounds it.
        work = sum(lat * n for lat, n in zip(ir.channel_latencies, transfers))
        bounds = [work + sum(row[li] * n for row, n in zip(self.latencies, computes))
                  for li in range(n_lanes)]
        for lane_id, bound in zip(self.lane_ids or (), bounds):
            if bound >= _INT64_LIMIT:
                raise SimulationError(
                    f"lane {lane_id}: clocks may exceed the int64 range of "
                    f"the vectorized engine (bound {bound}); simulate this "
                    "configuration with Simulator")
        fits = max(bounds + [v for row in delays for v in row]) < _INT64_LIMIT
        clocks = _Clocks(walk, lo[1], hi[1], final[1], live, delays,
                         np.int64 if fits else object)

        run = _Run(ir, self.latencies, clocks, walk, (lo, hi, part), final, q,
                   n_lanes, payloads)
        if walk.period is None or self.functional:
            run.stall_table  # the log grows with the run: fold it in now
        if traced:
            log = _columns(walk.log)
            laps = np.subtract(hi[3:3 + n_p], lo[3:3 + n_p])[log[1]]
            _emit(ir, clocks, log, (lo[2], hi[2], part[2], q, width, laps),
                  self.latencies, traced)
        return run


def _emit(ir: LoweredIR, clocks: _Clocks, log: Sequence[Any],
          cut: tuple[Any, ...], latencies: list[list[int]],
          traced: Sequence[tuple[int, tuple[TraceSink, ...]]]) -> None:
    """Hand the run's events, in walk order, to each traced lane's sinks
    (every event to the first sink, then every event to the next).
    ``cut = (lo, hi, part, copies, width, laps)`` unrolls the log as
    :func:`_unroll` does: slots advance by ``width`` and iterations by
    ``laps`` per copy, and the labels (kind, process, channel, duration)
    repeat, so they are built per logged event and copied as slices."""
    kinds, pids, cids, iterations, slots, arrivals, consts = log
    lo, hi, part, copies, width, laps = cut

    def unroll(column: Any, step: Any) -> Any:
        return _unroll(column, lo, hi, part, copies, step)

    def repeated(labels: list[Any]) -> list[Any]:
        return labels[:lo] + labels[lo:hi] * copies + labels[lo:part]

    times = clocks.at(unroll(slots, width))
    waits = times - unroll(consts, 0)[:, None] - clocks.at(unroll(arrivals, width))
    labels = [
        repeated(np.array(names, dtype=object)[index].tolist())
        for names, index in (
            (_KINDS, kinds), (ir.processes, pids), ((*ir.channels, None), cids))
    ] + [unroll(iterations, laps).tolist()]
    for li, sinks in traced:
        latency = np.asarray([row[li] for row in latencies])[pids]
        lane = (times[:, li].tolist(), *labels,
                repeated(np.where(kinds == _COMPUTE, latency, 0).tolist()),
                waits[:, li].tolist())
        for sink in sinks:
            emit = sink.emit
            # One pass per sink: tuple.__new__ builds each named tuple with
            # no Python-level call, and an event the sink drops is freed now.
            for event in cast(Iterable[TraceEvent], map(
                    tuple.__new__, repeat(TraceEvent), zip(*lane))):
                emit(event)


class Simulator:
    """Cycle-level simulator of a system under a channel ordering.

    One lane of the shared pipeline, with exact Python-int clocks.

    Args:
        system: The system to simulate.
        ordering: Statement orders (default: declaration order).
        behaviors: Optional functional behaviours per process name; see
            :data:`Behavior`.  Processes without one just synchronize.
        process_latencies: Optional per-process latency overrides; an
            unknown process name or a negative latency raises
            :class:`~repro.errors.SimulationError`.
        initial_payloads: Optional pre-loaded payloads per channel name
            (for channels with ``initial_tokens``).
        sinks: Trace sinks (see :mod:`repro.obs.sinks`); each receives
            every :class:`~repro.sim.trace.TraceEvent` in walk order.
            Attaching sinks never changes simulation results.

    With a registry active (:func:`repro.obs.collect`), each run records
    its end-of-run aggregates under the ``sim.*`` metric names (see
    ``docs/OBSERVABILITY.md``).  No hot-path cost.
    """

    def __init__(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        behaviors: Mapping[str, Behavior] | None = None,
        process_latencies: Mapping[str, int] | None = None,
        initial_payloads: Mapping[str, tuple[Any, ...]] | None = None,
        sinks: Sequence[TraceSink] = (),
    ):
        from repro.lint import preflight

        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        # Structural pre-flight (ERM1xx + ERM302): rejects specifications
        # that deadlock under *every* ordering before any cycle runs.
        preflight(system, self.ordering)
        self.ir = lower(system, self.ordering)
        self._sinks = [tuple(sinks)]
        self._engine = _Engine(system, self.ir, [process_latencies],
                               behaviors=behaviors,
                               initial_payloads=initial_payloads)

    def run(self, iterations: int = 64, watch: str | None = None,
            max_steps: int | None = None) -> SimulationResult:
        """Run until the watched process completes ``iterations`` loops.

        Args:
            iterations: Target number of completed iterations.
            watch: Process whose iterations are counted (default: the
                first sink, else the first process).
            max_steps: Safety valve on engine steps (default scales with
                system size and iteration count).

        Raises:
            SimulationDeadlock: Every process is blocked on a rendezvous;
                the exception's ``cycle`` carries the circular wait.
        """
        engine = self._engine
        run = engine.run(iterations, watch or default_watch(self.system),
                         max_steps, self._sinks)
        count("sim.runs")
        count("sim.steps", engine.steps)
        _add_totals("sim", [run])
        return run.lane(0)


class BatchSimulator:
    """Advance B simulations of one ``(system, ordering)`` pair in lock-step.

    Lanes are grouped by their channel-capacity signature; each group is
    one compile (memoized :func:`repro.ir.lower`), one control walk and
    one replay with a clock column per lane.  Latency-only batches — the DSE neighbor
    case — form a single group.  The batch engine is synchronization-only:
    functional payloads need :class:`Simulator`.

    Args:
        system: The shared system to simulate.
        ordering: Statement orders (default: declaration order), shared by
            every lane.
        lanes: Per-lane overrides; an empty :class:`BatchLane` replays the
            declared system exactly.

    With a registry active (:func:`repro.obs.collect`), each run records
    its end-of-run aggregates under the ``sim.batch.*`` metric names (see
    ``docs/OBSERVABILITY.md``).
    """

    def __init__(self, system: SystemGraph,
                 ordering: ChannelOrdering | None = None,
                 lanes: Sequence[BatchLane] = ()):
        from repro.lint import preflight

        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        self.lanes = tuple(lanes)

        declared = {c.name: c.capacity for c in system.channels}
        base = tuple(declared.values())
        # Group lane indices by capacity signature (declaration order).
        self._groups: dict[tuple[int, ...], tuple[SystemGraph, list[int]]] = {}
        for li, lane in enumerate(self.lanes):
            overrides = lane.channel_capacities or {}
            unknown = sorted(n for n in overrides if n not in declared)
            if unknown:
                raise SimulationError(
                    f"lane {li}: capacity override for unknown channel(s) "
                    f"{', '.join(repr(u) for u in unknown)}")
            signature = tuple(
                overrides.get(name, cap) for name, cap in declared.items()
            ) if overrides else base
            if signature not in self._groups:
                group = (system.with_channel_capacities(overrides)
                         if signature != base else system)
                # Each capacity signature is its own specification.
                preflight(group, self.ordering)
                self._groups[signature] = (group, [])
            self._groups[signature][1].append(li)

    @property
    def n_groups(self) -> int:
        """Distinct capacity signatures (compiles) in this batch."""
        return len(self._groups)

    def run(self, iterations: int = 64, watch: str | None = None,
            max_steps: int | None = None,
            on_deadlock: str = "raise") -> list[LaneOutcome]:
        """Run every lane to ``iterations`` completed loops of ``watch``.

        Args:
            iterations: Target completed iterations of the watched process
                (same contract as :meth:`Simulator.run`).
            watch: Watched process (default: first sink, else first
                process).
            max_steps: Safety valve on scheduler steps per group.
            on_deadlock: ``"raise"`` re-raises the first group's
                :class:`SimulationDeadlock` exactly as :class:`Simulator`
                would; ``"capture"`` stores the exception in each affected
                lane's slot instead and keeps running the other groups.

        Returns one outcome per lane, in lane order.  A latency override
        naming an unknown process or below zero, or a lane whose clocks
        would leave the int64 range, raises :class:`SimulationError`.
        """
        if on_deadlock not in ("raise", "capture"):
            raise SimulationError(
                f"on_deadlock must be 'raise' or 'capture', got {on_deadlock!r}"
            )
        watch = watch or default_watch(self.system)
        outcomes: dict[int, LaneOutcome] = {}
        runs: list[_Run] = []
        total_steps = 0
        for group_system, lane_indices in self._groups.values():
            group = [self.lanes[li] for li in lane_indices]
            engine = _Engine(group_system, lower(group_system, self.ordering),
                             [lane.process_latencies for lane in group],
                             lane_ids=lane_indices)
            try:
                run = engine.run(iterations, watch, max_steps,
                                 [tuple(lane.sinks) for lane in group])
            except SimulationDeadlock as deadlock:
                if on_deadlock == "raise":
                    raise
                outcomes.update(dict.fromkeys(lane_indices, deadlock))
            else:
                runs.append(run)
                outcomes.update((li, run.lane(i)) for i, li in enumerate(lane_indices))
            total_steps += engine.steps
        final = [outcomes[li] for li in range(len(self.lanes))]
        count("sim.batch.runs")
        count("sim.batch.lanes", len(self.lanes))
        count("sim.batch.groups", self.n_groups)
        count("sim.batch.steps", total_steps)
        count("sim.batch.deadlocked_lanes",
              sum(isinstance(o, SimulationDeadlock) for o in final))
        _add_totals("sim.batch", runs)
        return final


def _add_totals(prefix: str, runs: Sequence[_Run]) -> None:
    """End-of-run aggregates under the stable ``sim.*`` / ``sim.batch.*``
    metric names, summed over the finished ``runs`` and their lanes from
    each run's counts and final clocks (no lane's table is built)."""
    registry = active()
    if registry is None:
        return
    names = ("iterations", "transfers", "compute_cycles", "stall_cycles")
    for name, *values in zip(names, *(run.totals() for run in runs)):
        registry.counter(f"{prefix}.{name}").add(sum(values))


def simulate(system: SystemGraph, ordering: ChannelOrdering | None = None,
             iterations: int = 64, **kwargs: Any) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(system, ordering, **kwargs).run(iterations=iterations)


def simulate_batch(system: SystemGraph, lanes: Sequence[BatchLane],
                   ordering: ChannelOrdering | None = None,
                   iterations: int = 64, watch: str | None = None,
                   max_steps: int | None = None,
                   ) -> list[SimulationResult]:
    """One-call convenience wrapper around :class:`BatchSimulator`.

    Raises :class:`SimulationDeadlock` if any lane deadlocks (use
    :meth:`BatchSimulator.run` with ``on_deadlock="capture"`` for
    per-lane outcomes).
    """
    outcomes = BatchSimulator(system, ordering, lanes=lanes).run(
        iterations=iterations, watch=watch, max_steps=max_steps
    )
    return [outcome for outcome in outcomes if isinstance(outcome, SimulationResult)]
