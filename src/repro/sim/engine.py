"""The discrete-event simulation engine: one interpreter, one or B lanes.

This is the reproduction's substitute for RTL (or SystemC) simulation of
the synthesized system: every process runs its Fig. 2(b) FSM — blocking
gets in statement order, a computation phase of ``latency`` cycles,
blocking puts in order — and channels implement the vendor primitives'
rendezvous protocol cycle-accurately.  Because these are exactly the
semantics the Section 3 TMG abstracts, the measured steady-state period
must equal the analytic cycle time ``π(G)`` (tested in
``tests/integration``); unlike the TMG, the simulator also carries real
payloads (the MPEG-2 functional case study).

One interpreter, :class:`_Core`, executes the :class:`~repro.ir.LoweredIR`
array program: per-pid program counters over ``op_kinds``/``op_args`` and
per-channel-id deque tables, with payload staging and trace emission
gated behind one boolean each.  Its control path — which process runs,
where it blocks, which peer a transfer wakes — depends only on opcodes
and queue occupancies, never on timestamps, so one run can carry B
configurations that share the structure and the channel capacities.  The
clocks are Python ints for one lane (:class:`Simulator`: exact at any
magnitude, the only mode with functional payloads) or ``(B,)`` int64
vectors for B lanes (:class:`BatchSimulator`, grouped by capacity
signature, with an exact post-run bound against int64 wrap-around).  The
modes differ only in the ``maximum`` function, the trace fan-out, and the
decoding in :meth:`_Core.collect`.  The pre-IR interpreter in
``tests/sim/reference.py`` is the differential oracle for both.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Sequence, Union

import numpy as np

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import SimulationDeadlock, SimulationError
from repro.ir import OP_COMPUTE, OP_PUT, LoweredIR, lower
from repro.sim.trace import TraceEvent, TraceRecorder, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: A functional behaviour: ``(iteration, inputs by channel) -> outputs by
#: channel``.  Sources receive an empty mapping; sinks may return one.
Behavior = Callable[[int, Mapping[str, Any]], Mapping[str, Any]]

#: Vector clocks are int64; a lane whose exact clock bound reaches this
#: value may have wrapped and is rejected.
_INT64_LIMIT = 2**63


def token_behavior(iteration: int, inputs: Mapping[str, Any]) -> dict[str, Any]:
    """Default behaviour: pure synchronization, no payloads."""
    return {}


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    iterations: dict[str, int]
    times: dict[str, int]
    completion_times: dict[str, list[int]]
    compute_cycles: dict[str, int]
    stall_cycles: dict[str, int]
    channel_transfers: dict[str, int]
    sink_payloads: dict[str, list[Any]] = field(default_factory=dict)
    trace: tuple[TraceEvent, ...] = ()
    #: Per-process, per-channel stall cycles: which channel each process
    #: spent its waiting time on (``stall_cycles`` is the row sum).
    stall_breakdown: dict[str, dict[str, int]] = field(default_factory=dict)

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
LaneOutcome = Union[SimulationResult, SimulationDeadlock]


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
        record_trace: Keep this lane's trace on its result.
        sinks: Streaming trace sinks receiving this lane's events exactly
            as :class:`Simulator` would emit them.
    """

    process_latencies: Mapping[str, int] | None = None
    channel_capacities: Mapping[str, int] | None = None
    record_trace: bool = False
    sinks: Sequence[TraceSink] = ()


def batch_enabled_by_env(default: bool = False) -> bool:
    """Resolve the ``ERMES_SIM_BATCH`` environment knob: ``1``/``true``/
    ``yes``/``on`` (any case) enable batching, other values disable it,
    unset or empty returns ``default``."""
    raw = os.environ.get("ERMES_SIM_BATCH", "").strip().lower()
    if not raw:
        return default
    return raw in {"1", "true", "yes", "on"}


def default_watch(system: SystemGraph) -> str:
    """The process whose iterations a run counts: the first sink, else
    the first process."""
    sinks = system.sinks()
    return sinks[0].name if sinks else system.process_names[0]


class _Proc:
    """Mutable per-process state.  Clocks (``time``, queued times) are
    ints or ``(B,)`` vectors; ``stall`` rows are indexed by channel id."""

    __slots__ = (
        "pid", "name", "ops", "args", "n", "cids", "lat", "behavior",
        "time", "index", "iteration", "blocked_on", "computes",
        "completion_times", "stall", "inputs", "outputs", "sink_list",
    )

    def __init__(self, pid: int, name: str, ir: LoweredIR, lat: Any, zero: Any,
                 stall: Any, behavior: Behavior, sink_list: list[Any] | None):
        self.pid = pid
        self.name = name
        self.ops = ir.op_kinds[pid]
        self.args = ir.op_args[pid]
        self.n = len(self.ops)
        # The only rows of ``stall`` that can become non-zero.
        self.cids = sorted({
            arg for op, arg in zip(self.ops, self.args) if op != OP_COMPUTE
        })
        self.lat = lat
        self.behavior = behavior
        self.time = zero
        self.index = 0
        self.iteration = 0
        self.blocked_on = -1  # channel id while waiting, -1 when runnable
        self.computes = 0  # compute statements executed (shared by lanes)
        self.completion_times: list[Any] = []
        self.stall = stall
        self.inputs: dict[str, Any] = {}
        self.outputs: dict[str, Any] = {}
        self.sink_list = sink_list


class _Core:
    """One execution of ``ir`` (lowered from ``system``) over its lanes.

    ``latencies`` and ``recorders`` hold one entry per lane (latency
    overrides, trace recorder or ``None``).  ``vector`` selects ``(B,)``
    int64 clocks; otherwise there is exactly one lane on Python ints, the
    only mode that stages ``behaviors`` / ``initial_payloads``.
    ``lane_ids`` number the lanes in error messages.
    """

    def __init__(
        self,
        system: SystemGraph,
        ir: LoweredIR,
        latencies: Sequence[Mapping[str, int] | None],
        recorders: Sequence[TraceRecorder | None],
        vector: bool,
        lane_ids: Sequence[int] = (),
        behaviors: Mapping[str, Behavior] | None = None,
        initial_payloads: Mapping[str, tuple[Any, ...]] | None = None,
    ):
        behaviors = behaviors or {}
        payloads = initial_payloads or {}
        self.system = system
        self.ir = ir
        self.n_lanes = n_lanes = len(latencies)
        self.steps = 0
        self._vector = vector
        # Payload staging only runs when someone supplies payloads.
        self._functional = bool(behaviors) or bool(payloads)

        self._lane_ids = list(lane_ids) or list(range(n_lanes))
        self._latency_table = self._latencies(latencies)
        n_channels = ir.n_channels
        zero: Any
        if vector:
            self._maximum: Callable[[Any, Any], Any] = np.maximum
            zero = np.zeros(n_lanes, dtype=np.int64)
        else:
            self._maximum = max
            zero = 0
        self._ch_latency = ir.channel_latencies
        self._ch_buffered = ir.buffered
        self._producer_pid = ir.producers
        self._consumer_pid = ir.consumers
        self._transfers = [0] * n_channels
        # Per-channel-id queues: rendezvous arrivals waiting for a peer;
        # FIFO items, free-slot credits, and arrivals blocked on either.
        # Put-side entries are (time, payload) pairs, the others times.
        # Queued clocks are never mutated: one shared zero preloads all.
        tables: list[list[deque[Any]]] = [
            [deque() for _ in range(n_channels)] for _ in range(6)
        ]
        (self._pending_put, self._pending_get, self._items, self._credits,
         self._blocked_put, self._blocked_get) = tables
        for cid, channel_name in enumerate(ir.channels):
            preload = list(payloads.get(channel_name, ()))
            if ir.buffered[cid]:
                tokens = ir.initial_tokens[cid]
                if len(preload) > tokens:
                    raise SimulationError(
                        f"channel {channel_name!r}: more initial payloads "
                        f"({len(preload)}) than initial tokens ({tokens})"
                    )
                preload += [None] * (tokens - len(preload))
                self._items[cid].extend((zero, payload) for payload in preload)
                self._credits[cid].extend(
                    [zero] * (ir.effective_capacities[cid] - tokens)
                )
            elif preload:
                raise SimulationError(
                    f"channel {channel_name!r}: rendezvous channels cannot "
                    "carry initial payloads"
                )

        sink_names = {p.name for p in system.sinks()}
        self._sink_payloads: dict[str, list[Any]] = {
            name: [] for name in ir.processes if name in sink_names
        }
        self._procs = [
            _Proc(
                pid, name, ir,
                np.array(row, dtype=np.int64) if vector else row[0],
                zero,
                np.zeros((n_channels, n_lanes), dtype=np.int64)
                if vector else [0] * n_channels,
                behaviors.get(name, token_behavior),
                self._sink_payloads.get(name),
            )
            for pid, (name, row) in enumerate(zip(ir.processes, self._latency_table))
        ]

        # One lane records straight into its recorder; B lanes fan each
        # vector event out to the lanes that trace.
        self._recorders = list(recorders)
        traced = [
            (li, rec) for li, rec in enumerate(self._recorders) if rec is not None
        ]
        self._trace_on = bool(traced)
        self._record: Callable[..., None] = (
            traced[0][1].record if traced and not vector else _fan_out(traced)
        )

    def _latencies(
        self, overrides: Sequence[Mapping[str, int] | None]
    ) -> list[list[int]]:
        """Per pid, per lane compute latency (Python ints), validated."""
        declared = self.system.process_latencies()
        for li, override in enumerate(overrides):
            where = f"lane {self._lane_ids[li]}: " if self._vector else ""
            unknown = sorted(set(override or ()) - set(declared))
            if unknown:
                raise SimulationError(
                    f"{where}latency override for unknown process(es) "
                    f"{', '.join(repr(u) for u in unknown)}"
                )
            for name, latency in (override or {}).items():
                if latency < 0:
                    raise SimulationError(
                        f"{where}process {name!r}: latency must be >= 0, "
                        f"got {latency}"
                    )
        return [
            [(override or {}).get(name, declared[name]) for override in overrides]
            for name in self.ir.processes
        ]

    def run(self, iterations: int, watch: str, max_steps: int | None) -> None:
        """Advance every lane until ``watch`` completes ``iterations``
        loops (raises :class:`SimulationDeadlock` when the shared control
        path deadlocks — all lanes together, since the schedule is
        latency-independent)."""
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        watch_pid = self.ir.process_index.get(watch)
        if watch_pid is None:
            raise SimulationError(f"unknown watch process {watch!r}")
        procs = self._procs
        budget = max_steps or (
            40 * (iterations + 4) * (len(procs) + self.ir.n_channels) + 1000
        )
        watched = procs[watch_pid]
        advance = self._advance
        runnable: deque[int] = deque(range(len(procs)))
        steps = 0
        while watched.iteration < iterations:
            if not runnable:
                self.steps = steps
                self._raise_deadlock()
            steps += 1
            if steps > budget:
                raise SimulationError(
                    f"simulation exceeded its step budget ({budget}); "
                    "raise max_steps for very long transients"
                )
            pid = runnable.popleft()
            proc = procs[pid]
            advance(proc, runnable)
            if proc.blocked_on < 0:
                # The process stopped at an iteration boundary, not on a
                # channel: keep it runnable (round-robin fairness).
                runnable.append(pid)
        self.steps = steps

    # ------------------------------------------------------------------

    def _advance(self, proc: _Proc, runnable: deque[int]) -> None:
        """Run one process until it blocks or completes a loop (stopping at
        iteration boundaries keeps the runnable queue round-robin, so no
        free-running testbench source monopolizes the engine)."""
        if proc.blocked_on >= 0:
            return
        ops = proc.ops
        args = proc.args
        n = proc.n
        channels = self.ir.channels
        functional = self._functional
        trace_on = self._trace_on
        record = self._record
        maximum = self._maximum
        ch_latency = self._ch_latency
        ch_buffered = self._ch_buffered
        while True:
            i = proc.index
            op = ops[i]
            if op == OP_COMPUTE:
                if functional:
                    produced = proc.behavior(proc.iteration, dict(proc.inputs))
                    proc.outputs = dict(produced) if produced else {}
                latency = proc.lat
                proc.time = proc.time + latency
                proc.computes += 1
                if trace_on:
                    record(proc.time, "compute", proc.name, None,
                           proc.iteration, duration=latency)
            elif op == OP_PUT:
                cid = args[i]
                t = proc.time
                payload = proc.outputs.get(channels[cid]) if functional else None
                if ch_buffered[cid]:
                    credits = self._credits[cid]
                    if not credits:
                        self._blocked_put[cid].append((t, payload))
                        proc.blocked_on = cid
                        if trace_on:
                            record(t, "block-put", proc.name, channels[cid],
                                   proc.iteration)
                        return
                    start = maximum(t, credits.popleft())
                    done = start + ch_latency[cid]
                    self._items[cid].append((done, payload))
                    self._transfers[cid] += 1
                    waited = start - t  # arrival to transfer start
                    proc.stall[cid] += waited
                    proc.time = done
                    if trace_on:
                        record(done, "put", proc.name, channels[cid],
                               proc.iteration, wait=waited)
                    # The queued item may wake a blocked consumer (tail).
                else:
                    pending_get = self._pending_get[cid]
                    if not pending_get:
                        self._pending_put[cid].append((t, payload))
                        proc.blocked_on = cid
                        if trace_on:
                            record(t, "block-put", proc.name, channels[cid],
                                   proc.iteration)
                        return
                    # Rendezvous completes against the pending get.
                    get_time = pending_get.popleft()
                    start = maximum(t, get_time)
                    done = start + ch_latency[cid]
                    self._transfers[cid] += 1
                    waited = start - t
                    proc.stall[cid] += waited
                    proc.time = done
                    if trace_on:
                        record(done, "put", proc.name, channels[cid],
                               proc.iteration, wait=waited)
                    self._step(proc)
                    # Resume the consumer that was waiting on its get.
                    self._resume(self._procs[self._consumer_pid[cid]], cid,
                                 done, start - get_time, "get", payload,
                                 runnable)
                    if i + 1 == n:
                        # Wrapped: iteration boundary reached.
                        return
                    continue
            else:  # OP_GET
                cid = args[i]
                t = proc.time
                if ch_buffered[cid]:
                    items = self._items[cid]
                    if not items:
                        self._blocked_get[cid].append(t)
                        proc.blocked_on = cid
                        if trace_on:
                            record(t, "block-get", proc.name, channels[cid],
                                   proc.iteration)
                        return
                    item_time, payload = items.popleft()
                    done = maximum(t, item_time)
                    self._credits[cid].append(done)  # slot frees at `done`
                    waited = done - t
                    proc.stall[cid] += waited
                    proc.time = done
                    if functional:
                        self._deliver(proc, cid, payload)
                    if trace_on:
                        record(done, "get", proc.name, channels[cid],
                               proc.iteration, wait=waited)
                    # The credit may wake a blocked producer (tail).
                else:
                    pending_put = self._pending_put[cid]
                    if not pending_put:
                        self._pending_get[cid].append(t)
                        proc.blocked_on = cid
                        if trace_on:
                            record(t, "block-get", proc.name, channels[cid],
                                   proc.iteration)
                        return
                    put_time, payload = pending_put.popleft()
                    start = maximum(t, put_time)
                    done = start + ch_latency[cid]
                    self._transfers[cid] += 1
                    waited = start - t
                    proc.stall[cid] += waited
                    proc.time = done
                    if functional:
                        self._deliver(proc, cid, payload)
                    if trace_on:
                        record(done, "get", proc.name, channels[cid],
                               proc.iteration, wait=waited)
                    self._step(proc)
                    # Resume the producer that was waiting on its put.
                    self._resume(self._procs[self._producer_pid[cid]], cid,
                                 done, start - put_time, "put", None,
                                 runnable)
                    if i + 1 == n:
                        # Wrapped: iteration boundary reached.
                        return
                    continue
            # Tail of compute and buffered put/get; rendezvous paths
            # advanced before resuming their peer and `continue`d above.
            self._step(proc)
            if op != OP_COMPUTE:
                self._wake(op, cid, runnable)
            if i + 1 == n:
                return

    def _step(self, proc: _Proc) -> None:
        """Move past the current statement; wrap bumps the iteration."""
        i = proc.index + 1
        if i == proc.n:
            proc.index = 0
            proc.iteration += 1
            proc.completion_times.append(proc.time)
            if self._functional:
                proc.inputs = {}
        else:
            proc.index = i

    def _deliver(self, proc: _Proc, cid: int, payload: Any) -> None:
        """Stage a received payload (functional mode only)."""
        proc.inputs[self.ir.channels[cid]] = payload
        if proc.sink_list is not None and payload is not None:
            proc.sink_list.append(payload)

    def _wake(self, op: int, cid: int, runnable: deque[int]) -> None:
        """Post-completion wake-ups on a buffered channel."""
        if op == OP_PUT:
            self._wake_blocked_get(cid, runnable)
        else:
            self._wake_blocked_put(cid, runnable)

    def _resume(self, peer: _Proc, cid: int, done: Any, wait: Any, kind: str,
                payload: Any, runnable: deque[int]) -> None:
        """A blocked peer's ``kind`` transfer on ``cid`` completed: unblock
        and reschedule it (a consumer also receives ``payload``)."""
        channels = self.ir.channels
        if peer.blocked_on != cid:
            was = channels[peer.blocked_on] if peer.blocked_on >= 0 else None
            raise SimulationError(
                f"protocol violation on {channels[cid]!r}: {peer.name!r} "
                f"completed a {kind} it was not waiting for (blocked on {was!r})"
            )
        peer.stall[cid] += wait
        peer.time = done
        if kind == "get" and self._functional:
            self._deliver(peer, cid, payload)
        peer.blocked_on = -1
        if self._trace_on:
            self._record(done, kind, peer.name, channels[cid], peer.iteration,
                         wait=wait)
        self._step(peer)
        runnable.append(peer.pid)

    def _wake_blocked_put(self, cid: int, runnable: deque[int]) -> None:
        """Try to complete the oldest blocked put after a credit release."""
        blocked = self._blocked_put[cid]
        credits = self._credits[cid]
        if not blocked or not credits:
            return
        t, payload = blocked.popleft()
        start = self._maximum(t, credits.popleft())
        done = start + self._ch_latency[cid]
        self._items[cid].append((done, payload))
        self._transfers[cid] += 1
        self._resume(self._procs[self._producer_pid[cid]], cid, done,
                     start - t, "put", None, runnable)
        # The item just queued may satisfy a blocked get in turn.
        self._wake_blocked_get(cid, runnable)

    def _wake_blocked_get(self, cid: int, runnable: deque[int]) -> None:
        """Try to complete the oldest blocked get after an item arrival."""
        blocked = self._blocked_get[cid]
        items = self._items[cid]
        if not blocked or not items:
            return
        t = blocked.popleft()
        item_time, payload = items.popleft()
        done = self._maximum(t, item_time)
        self._credits[cid].append(done)
        self._resume(self._procs[self._consumer_pid[cid]], cid, done,
                     done - t, "get", payload, runnable)
        # A credit was released by that get: maybe another put can proceed.
        self._wake_blocked_put(cid, runnable)

    # ------------------------------------------------------------------

    def _raise_deadlock(self) -> None:
        """Diagnose and raise the runtime deadlock: everyone is blocked
        (in every lane at once: the schedule is shared)."""
        ir = self.ir
        waiting = {
            proc.name: ir.channels[proc.blocked_on]
            for proc in self._procs
            if proc.blocked_on >= 0
        }
        # Wait-for edges: blocked process -> the peer of the channel.
        wait_for: dict[str, str] = {}
        for proc in self._procs:
            cid = proc.blocked_on
            if cid < 0:
                continue
            peer_pid = (
                ir.consumers[cid]
                if ir.producers[cid] == proc.pid else ir.producers[cid]
            )
            wait_for[proc.name] = ir.processes[peer_pid]
        cycle = _find_wait_cycle(wait_for)
        detail = ", ".join(f"{p} on {c}" for p, c in sorted(waiting.items()))
        raise SimulationDeadlock(
            f"simulation deadlock: all runnable processes are blocked ({detail})",
            cycle=cycle,
            waiting=waiting,
        )

    def collect(self) -> list[SimulationResult]:
        """Per-lane results with Python-int clocks, in lane order."""
        ir = self.ir
        channels = ir.channels
        procs = self._procs
        n_lanes = self.n_lanes
        lanes: Callable[[Any], list[Any]]
        if self._vector:
            self._check_bound()
            lanes = np.ndarray.tolist
            series = [
                np.stack(p.completion_times, axis=1).tolist()
                if p.completion_times else [[] for _ in range(n_lanes)]
                for p in procs
            ]
        else:
            lanes = _one_lane
            series = [[list(p.completion_times)] for p in procs]
        times = [lanes(p.time) for p in procs]
        computes = [lanes(p.lat * p.computes) for p in procs]
        stalls = [[(cid, lanes(p.stall[cid])) for cid in p.cids] for p in procs]
        iterations = {p.name: p.iteration for p in procs}
        transfers = {name: self._transfers[cid] for cid, name in enumerate(channels)}

        results: list[SimulationResult] = []
        for li in range(n_lanes):
            breakdown = {
                p.name: cells
                for p, row in zip(procs, stalls)
                if (cells := {
                    channels[cid]: column[li] for cid, column in row if column[li]
                })
            }
            recorder = self._recorders[li]
            results.append(SimulationResult(
                iterations=dict(iterations),
                times={p.name: col[li] for p, col in zip(procs, times)},
                completion_times={p.name: col[li] for p, col in zip(procs, series)},
                compute_cycles={p.name: col[li] for p, col in zip(procs, computes)},
                stall_cycles={
                    p.name: sum(breakdown.get(p.name, {}).values()) for p in procs
                },
                channel_transfers=dict(transfers),
                sink_payloads={k: list(v) for k, v in self._sink_payloads.items()},
                trace=recorder.events() if recorder is not None else (),
                stall_breakdown=breakdown,
            ))
        return results

    def _check_bound(self) -> None:
        """Reject vector lanes whose int64 clocks may have wrapped: no
        clock exceeds Σ process latency × computes + Σ channel latency ×
        transfers, computed exactly per lane."""
        channel_work = sum(
            lat * count for lat, count in zip(self._ch_latency, self._transfers)
        )
        for li, lane_id in enumerate(self._lane_ids):
            bound = channel_work + sum(
                row[li] * proc.computes
                for row, proc in zip(self._latency_table, self._procs)
            )
            if bound >= _INT64_LIMIT:
                raise SimulationError(
                    f"lane {lane_id}: clocks may exceed the int64 range of the "
                    f"vectorized engine (bound {bound}); simulate this "
                    "configuration with Simulator"
                )


def _one_lane(value: Any) -> list[Any]:
    return [value]


def _fan_out(traced: list[tuple[int, TraceRecorder]]) -> Callable[..., None]:
    """Trace hook of a vector run: fan each event out to the tracing lanes
    (a no-op for an untraced run, which never calls it)."""

    def record(time: Any, kind: str, process: str, channel: str | None,
               iteration: int, duration: Any = None, wait: Any = None) -> None:
        for li, recorder in traced:
            recorder.record(
                int(time[li]), kind, process, channel, iteration,
                duration=int(duration[li]) if duration is not None else 0,
                wait=int(wait[li]) if wait is not None else 0,
            )

    return record


def _find_wait_cycle(wait_for: dict[str, str]) -> list[str] | None:
    """Find a cycle in the (functional) wait-for graph."""
    state: dict[str, int] = {}
    for root in wait_for:
        if state.get(root):
            continue
        path: list[str] = []
        node = root
        while node in wait_for and state.get(node) is None:
            state[node] = 1
            path.append(node)
            node = wait_for[node]
        if state.get(node) == 1 and node in wait_for:
            return path[path.index(node):]
        for visited in path:
            state[visited] = 2
    return None


class Simulator:
    """Cycle-level simulator of a system under a channel ordering.

    One lane with exact Python-int clocks over the shared interpreter.

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
        record_trace: Keep a full event trace (memory-heavy; debugging).
        sinks: Streaming trace sinks (see :mod:`repro.obs.sinks`); each
            receives every :class:`~repro.sim.trace.TraceEvent` as it is
            emitted.  Attaching sinks never changes simulation results.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; end-of-run
            aggregates are recorded under the ``sim.*`` metric names
            (see ``docs/OBSERVABILITY.md``).  No hot-path cost.
    """

    def __init__(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        behaviors: Mapping[str, Behavior] | None = None,
        process_latencies: Mapping[str, int] | None = None,
        initial_payloads: Mapping[str, tuple[Any, ...]] | None = None,
        record_trace: bool = False,
        sinks: Sequence[TraceSink] = (),
        metrics: "MetricsRegistry | None" = None,
    ):
        from repro.lint import preflight

        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        # Structural pre-flight (ERM1xx + ERM302): rejects specifications
        # that deadlock under *every* ordering before any cycle runs.
        preflight(system, self.ordering)
        self.ir = lower(system, self.ordering)
        recorder = (
            TraceRecorder(enabled=record_trace, sinks=sinks)
            if record_trace or sinks else None
        )
        self._core = _Core(
            system, self.ir, [process_latencies], [recorder], vector=False,
            behaviors=behaviors, initial_payloads=initial_payloads,
        )
        self._metrics = metrics

    def run(
        self,
        iterations: int = 64,
        watch: str | None = None,
        max_steps: int | None = None,
    ) -> SimulationResult:
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
        core = self._core
        core.run(iterations, watch or default_watch(self.system), max_steps)
        (result,) = core.collect()
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("sim.runs").add(1)
            metrics.counter("sim.steps").add(core.steps)
            _add_totals(metrics, "sim", [result])
        return result


class BatchSimulator:
    """Advance B simulations of one ``(system, ordering)`` pair in lock-step.

    Lanes are grouped by their channel-capacity signature; each group is
    one compile (memoized :func:`repro.ir.lower`) and one vectorized run
    of the shared interpreter.  Latency-only batches — the DSE neighbor
    case — form a single group.  The batch engine is synchronization-only:
    functional payloads need :class:`Simulator`.

    Args:
        system: The shared system to simulate.
        ordering: Statement orders (default: declaration order), shared by
            every lane.
        lanes: Per-lane overrides; an empty :class:`BatchLane` replays the
            declared system exactly.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; end-of-run
            aggregates are recorded under the ``sim.batch.*`` metric names
            (see ``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        lanes: Sequence[BatchLane] = (),
        metrics: "MetricsRegistry | None" = None,
    ):
        from repro.lint import preflight

        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        self.lanes = tuple(lanes)
        self._metrics = metrics

        declared = {c.name: c.capacity for c in system.channels}
        # Group lane indices by capacity signature (declaration order).
        self._groups: dict[tuple[int, ...], tuple[SystemGraph, list[int]]] = {}
        for li, lane in enumerate(self.lanes):
            overrides = dict(lane.channel_capacities or {})
            unknown = sorted(set(overrides) - set(declared))
            if unknown:
                raise SimulationError(
                    f"lane {li}: capacity override for unknown channel(s) "
                    f"{', '.join(repr(u) for u in unknown)}"
                )
            signature = tuple(
                overrides.get(name, cap) for name, cap in declared.items()
            )
            entry = self._groups.get(signature)
            if entry is None:
                group_system = (
                    system.with_channel_capacities(overrides)
                    if signature != tuple(declared.values()) else system
                )
                # Each capacity signature is its own specification.
                preflight(group_system, self.ordering)
                self._groups[signature] = (group_system, [li])
            else:
                entry[1].append(li)

    @property
    def n_groups(self) -> int:
        """Distinct capacity signatures (compiles) in this batch."""
        return len(self._groups)

    def run(
        self,
        iterations: int = 64,
        watch: str | None = None,
        max_steps: int | None = None,
        on_deadlock: str = "raise",
    ) -> List[LaneOutcome]:
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
        total_steps = 0
        for group_system, lane_indices in self._groups.values():
            group = [self.lanes[li] for li in lane_indices]
            try:
                core = _Core(
                    group_system,
                    lower(group_system, self.ordering),
                    [lane.process_latencies for lane in group],
                    [
                        TraceRecorder(enabled=lane.record_trace, sinks=lane.sinks)
                        if lane.record_trace or lane.sinks else None
                        for lane in group
                    ],
                    vector=True,
                    lane_ids=lane_indices,
                )
                core.run(iterations, watch, max_steps)
                results: Sequence[LaneOutcome] = core.collect()
            except SimulationDeadlock as deadlock:
                if on_deadlock == "raise":
                    raise
                results = [deadlock] * len(lane_indices)
            except OverflowError as error:
                lanes = ", ".join(str(li) for li in lane_indices)
                raise SimulationError(
                    f"lane(s) {lanes}: a latency exceeds the int64 range of "
                    "the vectorized engine; simulate this configuration "
                    "with Simulator"
                ) from error
            total_steps += core.steps
            outcomes.update(zip(lane_indices, results))
        final = [outcomes[li] for li in range(len(self.lanes))]
        metrics = self._metrics
        if metrics is not None:
            finished = [o for o in final if isinstance(o, SimulationResult)]
            metrics.counter("sim.batch.runs").add(1)
            metrics.counter("sim.batch.lanes").add(len(self.lanes))
            metrics.counter("sim.batch.groups").add(self.n_groups)
            metrics.counter("sim.batch.steps").add(total_steps)
            metrics.counter("sim.batch.deadlocked_lanes").add(
                len(final) - len(finished)
            )
            _add_totals(metrics, "sim.batch", finished)
        return final


def _add_totals(
    metrics: "MetricsRegistry", prefix: str, results: Sequence[SimulationResult]
) -> None:
    """End-of-run aggregates under the stable ``sim.*`` / ``sim.batch.*``
    metric names, summed over ``results``."""
    for name, attribute in (
        ("iterations", "iterations"), ("transfers", "channel_transfers"),
        ("compute_cycles", "compute_cycles"), ("stall_cycles", "stall_cycles"),
    ):
        metrics.counter(f"{prefix}.{name}").add(
            sum(sum(getattr(r, attribute).values()) for r in results)
        )


def simulate(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    iterations: int = 64,
    **kwargs: Any,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(system, ordering, **kwargs).run(iterations=iterations)


def simulate_batch(
    system: SystemGraph,
    lanes: Sequence[BatchLane],
    ordering: ChannelOrdering | None = None,
    iterations: int = 64,
    watch: str | None = None,
    max_steps: int | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> list[SimulationResult]:
    """One-call convenience wrapper around :class:`BatchSimulator`.

    Raises :class:`SimulationDeadlock` if any lane deadlocks (use
    :meth:`BatchSimulator.run` with ``on_deadlock="capture"`` for
    per-lane outcomes).
    """
    outcomes = BatchSimulator(
        system, ordering, lanes=lanes, metrics=metrics
    ).run(iterations=iterations, watch=watch, max_steps=max_steps)
    return [outcome for outcome in outcomes if isinstance(outcome, SimulationResult)]
