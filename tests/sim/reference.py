"""The frozen pre-IR reference simulator (differential-testing oracle).

This module preserves the original interpretive discrete-event engine
exactly as it was before :class:`repro.sim.Simulator` was refactored to
execute the lowered IR's integer arrays: it walks
``ordering.statements_of(...)`` chains with string comparisons and
name-keyed dict lookups, one :class:`ProcessState` per process and one
:class:`ChannelState` per channel.

It exists for two reasons:

* **differential testing** — ``tests/ir``, ``tests/sim`` and the
  Hypothesis properties run it beside :class:`repro.sim.Simulator` and
  :class:`repro.sim.BatchSimulator` on the same systems and assert
  bit-identical :class:`~repro.sim.SimulationResult`\\ s;
* **benchmark baseline** — ``benchmarks/test_bench_ir.py`` measures the
  IR engine's speedup against this engine on identical workloads.

Channel semantics (the vendor library of Listing 1, as the synthesized
RTL behaves):

* **Rendezvous** (``capacity == 0``): a put and its matching get
  synchronize; the transfer starts when both sides have arrived and
  completes ``latency`` cycles later, when both sides resume.  This is the
  self-looping I/O state of the Fig. 2(b) FSM.
* **Buffered** (``capacity >= 1``, used for pre-loaded channels): the
  producer needs a free slot (credit) to start a transfer; the item becomes
  visible to the consumer ``latency`` cycles after the transfer starts; a
  get returns the slot.  ``initial_tokens`` items are available at time 0.

Arrivals pair strictly FIFO on both sides, matching the marked-graph
semantics of :mod:`repro.model.build`.

Do not optimize this module; its value is that it does not change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.system import Channel, ChannelOrdering, SystemGraph
from repro.errors import SimulationDeadlock, SimulationError
from repro.sim.engine import (
    Behavior,
    SimulationResult,
    token_behavior,
)
from repro.sim.trace import TraceEvent, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


@dataclass
class Rendezvous:
    """Outcome of offering one side of a transfer."""

    complete: bool
    time: int = 0
    payload: Any = None
    peer_wait: int = 0  # cycles the *other* side spent waiting, if it did


@dataclass
class ChannelState:
    """Mutable simulation state of one channel."""

    channel: Channel
    initial_payloads: tuple[Any, ...] = ()

    # Rendezvous bookkeeping.
    _pending_put: deque = field(default_factory=deque)  # (time, payload)
    _pending_get: deque = field(default_factory=deque)  # times
    # Buffered bookkeeping.
    _items: deque = field(default_factory=deque)  # (available_time, payload)
    _credits: deque = field(default_factory=deque)  # available times
    _blocked_put: deque = field(default_factory=deque)  # (time, payload)
    _blocked_get: deque = field(default_factory=deque)  # times

    transfers: int = 0

    def __post_init__(self) -> None:
        if self.buffered:
            payloads = list(self.initial_payloads)
            if len(payloads) > self.channel.initial_tokens:
                raise SimulationError(
                    f"channel {self.channel.name!r}: more initial payloads "
                    f"({len(payloads)}) than initial tokens "
                    f"({self.channel.initial_tokens})"
                )
            payloads += [None] * (self.channel.initial_tokens - len(payloads))
            for payload in payloads:
                self._items.append((0, payload))
            free = self.effective_capacity - self.channel.initial_tokens
            for _ in range(free):
                self._credits.append(0)
        elif self.initial_payloads:
            raise SimulationError(
                f"channel {self.channel.name!r}: rendezvous channels cannot "
                "carry initial payloads"
            )

    @property
    def buffered(self) -> bool:
        """Delegates to :attr:`Channel.is_buffered` — the promotion of a
        pre-loaded ``capacity == 0`` channel to a FIFO is declared on the
        channel itself, not re-derived here."""
        return self.channel.is_buffered

    @property
    def effective_capacity(self) -> int:
        return self.channel.effective_capacity

    # ------------------------------------------------------------------
    # Rendezvous protocol
    # ------------------------------------------------------------------

    def offer_put(self, time: int, payload: Any) -> Rendezvous:
        """Producer arrives at its put statement at ``time``.

        Returns a completed rendezvous when the transfer can finish now
        (peer already arrived / credit available); otherwise registers the
        arrival and reports ``complete=False`` — the producer blocks and
        will be resumed by the engine.
        """
        if self.buffered:
            if self._credits:
                credit_time = self._credits.popleft()
                start = max(time, credit_time)
                done = start + self.channel.latency
                self._items.append((done, payload))
                self.transfers += 1
                return Rendezvous(True, done, peer_wait=max(0, time - credit_time))
            self._blocked_put.append((time, payload))
            return Rendezvous(False)
        if self._pending_get:
            get_time = self._pending_get.popleft()
            start = max(time, get_time)
            done = start + self.channel.latency
            self.transfers += 1
            return Rendezvous(
                True, done, payload=payload, peer_wait=max(0, start - get_time)
            )
        self._pending_put.append((time, payload))
        return Rendezvous(False)

    def offer_get(self, time: int) -> Rendezvous:
        """Consumer arrives at its get statement at ``time``."""
        if self.buffered:
            if self._items:
                item_time, payload = self._items.popleft()
                done = max(time, item_time)
                # The freed slot becomes available when the get completes.
                self._release_credit(done)
                return Rendezvous(True, done, payload=payload)
            self._blocked_get.append(time)
            return Rendezvous(False)
        if self._pending_put:
            put_time, payload = self._pending_put.popleft()
            start = max(time, put_time)
            done = start + self.channel.latency
            self.transfers += 1
            return Rendezvous(
                True, done, payload=payload, peer_wait=max(0, start - put_time)
            )
        self._pending_get.append(time)
        return Rendezvous(False)

    # ------------------------------------------------------------------
    # Wake-ups for buffered channels
    # ------------------------------------------------------------------

    def _release_credit(self, time: int) -> None:
        """Return a slot; if a producer is blocked on it, it can now be
        resumed by the engine via :meth:`resolve_blocked_put`."""
        self._credits.append(time)

    def resolve_blocked_put(self) -> Rendezvous | None:
        """Try to complete the oldest blocked put (engine calls this after
        a get released a credit)."""
        if not self._blocked_put or not self._credits:
            return None
        time, payload = self._blocked_put.popleft()
        credit_time = self._credits.popleft()
        start = max(time, credit_time)
        done = start + self.channel.latency
        self._items.append((done, payload))
        self.transfers += 1
        return Rendezvous(True, done, peer_wait=max(0, start - time))

    def resolve_blocked_get(self) -> Rendezvous | None:
        """Try to complete the oldest blocked get (engine calls this after
        a put appended an item)."""
        if not self._blocked_get or not self._items:
            return None
        time = self._blocked_get.popleft()
        item_time, payload = self._items.popleft()
        done = max(time, item_time)
        self._release_credit(done)
        return Rendezvous(True, done, payload=payload, peer_wait=max(0, done - time))

    # ------------------------------------------------------------------
    # Introspection (deadlock diagnosis)
    # ------------------------------------------------------------------

    def waiting_put(self) -> bool:
        return bool(self._pending_put or self._blocked_put)

    def waiting_get(self) -> bool:
        return bool(self._pending_get or self._blocked_get)


@dataclass
class StallStats:
    """Waiting time accumulated on one channel endpoint."""

    cycles: int = 0
    events: int = 0

    def record(self, waited: int) -> None:
        if waited > 0:
            self.cycles += waited
            self.events += 1


@dataclass
class ProcessState:
    """Mutable simulation state of one process."""

    name: str
    chain: tuple[tuple[str, str], ...]  # (kind, channel-or-process)
    latency: int
    behavior: Behavior = token_behavior

    time: int = 0
    index: int = 0
    iteration: int = 0
    blocked_on: str | None = None  # channel name while waiting
    compute_cycles: int = 0
    completion_times: list[int] = field(default_factory=list)
    stalls: dict[str, StallStats] = field(default_factory=dict)

    # Payload staging for the functional mode.
    inputs: dict[str, Any] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)

    @property
    def current(self) -> tuple[str, str]:
        return self.chain[self.index]

    @property
    def blocked(self) -> bool:
        return self.blocked_on is not None

    def stall(self, channel: str, waited: int) -> None:
        self.stalls.setdefault(channel, StallStats()).record(waited)

    def advance_statement(self) -> None:
        """Move to the next statement; bumps the iteration counter when the
        chain wraps around."""
        self.index += 1
        if self.index == len(self.chain):
            self.index = 0
            self.iteration += 1
            self.completion_times.append(self.time)
            self.inputs = {}

    def run_behavior(self) -> None:
        """Invoke the functional behaviour at the computation statement."""
        produced = self.behavior(self.iteration, dict(self.inputs))
        self.outputs = dict(produced) if produced else {}

    def total_stall_cycles(self) -> int:
        return sum(s.cycles for s in self.stalls.values())


class ReferenceSimulator:
    """The pre-IR chain-walking simulator; see the module docstring.

    Same constructor, :meth:`run` contract, results, and raised errors as
    :class:`repro.sim.Simulator`.
    """

    def __init__(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        behaviors: Mapping[str, Behavior] | None = None,
        process_latencies: Mapping[str, int] | None = None,
        initial_payloads: Mapping[str, tuple[Any, ...]] | None = None,
        sinks: Sequence[TraceSink] = (),
        metrics: "MetricsRegistry | None" = None,
    ):
        from repro.lint import preflight

        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        preflight(system, self.ordering)
        behaviors = behaviors or {}
        overrides = dict(process_latencies or {})
        payloads = initial_payloads or {}

        self._channels: dict[str, ChannelState] = {
            c.name: ChannelState(c, initial_payloads=tuple(payloads.get(c.name, ())))
            for c in system.channels
        }
        self._processes: dict[str, ProcessState] = {}
        for p in system.processes:
            state = ProcessState(
                name=p.name,
                chain=self.ordering.statements_of(p.name),
                latency=overrides.get(p.name, p.latency),
            )
            behavior = behaviors.get(p.name)
            if behavior is not None:
                state.behavior = behavior
            self._processes[p.name] = state
        self._sinks = tuple(sinks)
        self._metrics = metrics
        self._sink_payloads: dict[str, list[Any]] = {
            p.name: [] for p in system.sinks()
        }

    # ------------------------------------------------------------------

    def run(
        self,
        iterations: int = 64,
        watch: str | None = None,
        max_steps: int | None = None,
    ) -> SimulationResult:
        """Run until the watched process completes ``iterations`` loops."""
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        watch = watch or self._default_watch()
        if watch not in self._processes:
            raise SimulationError(f"unknown watch process {watch!r}")
        budget = max_steps or (
            40 * (iterations + 4) * (len(self._processes) + len(self._channels)) + 1000
        )

        runnable: deque[str] = deque(self._processes)
        steps = 0
        while self._processes[watch].iteration < iterations:
            if not runnable:
                self._raise_deadlock()
            steps += 1
            if steps > budget:
                raise SimulationError(
                    f"simulation exceeded its step budget ({budget}); "
                    "raise max_steps for very long transients"
                )
            name = runnable.popleft()
            self._advance(name, runnable)
            if not self._processes[name].blocked:
                # The process stopped at an iteration boundary, not on a
                # channel: keep it runnable (round-robin fairness).
                runnable.append(name)
        result = self._collect()
        if self._metrics is not None:
            self._record_metrics(result, steps)
        return result

    # ------------------------------------------------------------------

    def _default_watch(self) -> str:
        sinks = self.system.sinks()
        if sinks:
            return sinks[0].name
        return self.system.process_names[0]

    def _advance(self, name: str, runnable: deque[str]) -> None:
        """Run one process until it blocks (or completes a full loop)."""
        state = self._processes[name]
        if state.blocked:
            return
        start_iteration = state.iteration
        while state.iteration == start_iteration and not state.blocked:
            kind, target = state.current
            if kind == "compute":
                state.run_behavior()
                state.time += state.latency
                state.compute_cycles += state.latency
                self._emit(state.time, "compute", name, None,
                           state.iteration, duration=state.latency)
                state.advance_statement()
                continue
            channel = self._channels[target]
            if kind == "put":
                payload = state.outputs.get(target)
                outcome = channel.offer_put(state.time, payload)
                if not outcome.complete:
                    state.blocked_on = target
                    self._emit(state.time, "block-put", name, target,
                               state.iteration)
                    break
                self._complete_put(state, target, outcome, runnable)
            else:  # get
                outcome = channel.offer_get(state.time)
                if not outcome.complete:
                    state.blocked_on = target
                    self._emit(state.time, "block-get", name, target,
                               state.iteration)
                    break
                self._complete_get(state, target, outcome, runnable)

    def _complete_put(self, state, channel_name, outcome, runnable) -> None:
        """Finish a put whose transfer can complete now."""
        channel = self._channels[channel_name]
        consumer = self.system.channel(channel_name).consumer
        # Transfer started at outcome.time - latency; anything between the
        # producer's arrival and that start was spent waiting.
        waited = max(0, outcome.time - state.time - channel.channel.latency)
        state.stall(channel_name, waited)
        state.time = outcome.time
        self._emit(state.time, "put", state.name, channel_name,
                   state.iteration, wait=waited)
        state.advance_statement()
        if channel.buffered:
            # The item is now queued; a consumer blocked on this channel
            # may proceed.
            self._wake_blocked_get(channel_name, runnable)
        else:
            # Rendezvous completed against a pending get: resume the peer.
            self._resume_peer_get(consumer, channel_name, outcome, runnable)

    def _complete_get(self, state, channel_name, outcome, runnable) -> None:
        channel = self._channels[channel_name]
        producer = self.system.channel(channel_name).producer
        waited = max(0, outcome.time - state.time
                     - (0 if channel.buffered else channel.channel.latency))
        state.stall(channel_name, waited)
        state.time = outcome.time
        state.inputs[channel_name] = outcome.payload
        self._record_sink_payload(state, channel_name, outcome.payload)
        self._emit(state.time, "get", state.name, channel_name,
                   state.iteration, wait=waited)
        state.advance_statement()
        if channel.buffered:
            # A credit was released; a producer blocked on it may proceed.
            self._wake_blocked_put(channel_name, runnable)
        else:
            self._resume_peer_put(producer, channel_name, outcome, runnable)

    def _resume_peer_get(self, consumer, channel_name, outcome, runnable) -> None:
        """A pending get was matched by this put: unblock the consumer."""
        peer = self._processes[consumer]
        if peer.blocked_on != channel_name:
            raise SimulationError(
                f"protocol violation on {channel_name!r}: consumer "
                f"{consumer!r} was not waiting (blocked on {peer.blocked_on!r})"
            )
        peer.stall(channel_name, outcome.peer_wait)
        peer.time = outcome.time
        peer.inputs[channel_name] = outcome.payload
        self._record_sink_payload(peer, channel_name, outcome.payload)
        peer.blocked_on = None
        self._emit(peer.time, "get", consumer, channel_name,
                   peer.iteration, wait=outcome.peer_wait)
        peer.advance_statement()
        runnable.append(consumer)

    def _resume_peer_put(self, producer, channel_name, outcome, runnable) -> None:
        peer = self._processes[producer]
        if peer.blocked_on != channel_name:
            raise SimulationError(
                f"protocol violation on {channel_name!r}: producer "
                f"{producer!r} was not waiting (blocked on {peer.blocked_on!r})"
            )
        peer.stall(channel_name, outcome.peer_wait)
        peer.time = outcome.time
        peer.blocked_on = None
        self._emit(peer.time, "put", producer, channel_name,
                   peer.iteration, wait=outcome.peer_wait)
        peer.advance_statement()
        runnable.append(producer)

    def _wake_blocked_put(self, channel_name, runnable) -> None:
        channel = self._channels[channel_name]
        outcome = channel.resolve_blocked_put()
        if outcome is None:
            return
        producer = self.system.channel(channel_name).producer
        peer = self._processes[producer]
        if peer.blocked_on != channel_name:
            raise SimulationError(
                f"protocol violation on {channel_name!r}: blocked put without "
                f"a blocked producer"
            )
        peer.stall(channel_name, outcome.peer_wait)
        peer.time = outcome.time
        peer.blocked_on = None
        self._emit(peer.time, "put", producer, channel_name,
                   peer.iteration, wait=outcome.peer_wait)
        peer.advance_statement()
        runnable.append(producer)
        # The item just queued may satisfy a blocked get in turn.
        self._wake_blocked_get(channel_name, runnable)

    def _wake_blocked_get(self, channel_name, runnable) -> None:
        channel = self._channels[channel_name]
        outcome = channel.resolve_blocked_get()
        if outcome is None:
            return
        consumer = self.system.channel(channel_name).consumer
        peer = self._processes[consumer]
        if peer.blocked_on != channel_name:
            raise SimulationError(
                f"protocol violation on {channel_name!r}: blocked get without "
                f"a blocked consumer"
            )
        peer.stall(channel_name, outcome.peer_wait)
        peer.time = outcome.time
        peer.inputs[channel_name] = outcome.payload
        self._record_sink_payload(peer, channel_name, outcome.payload)
        peer.blocked_on = None
        self._emit(peer.time, "get", consumer, channel_name,
                   peer.iteration, wait=outcome.peer_wait)
        peer.advance_statement()
        runnable.append(consumer)
        # A credit was released by that get: maybe another put can proceed.
        self._wake_blocked_put(channel_name, runnable)

    def _emit(self, time: int, kind: str, process: str, channel: str | None,
              iteration: int, duration: int = 0, wait: int = 0) -> None:
        """Hand one event to every sink, in emission order."""
        if self._sinks:
            event = TraceEvent(time, kind, process, channel, iteration,
                               duration, wait)
            for sink in self._sinks:
                sink.emit(event)

    def _record_sink_payload(self, state: ProcessState, channel: str, payload) -> None:
        if state.name in self._sink_payloads and payload is not None:
            self._sink_payloads[state.name].append(payload)

    # ------------------------------------------------------------------

    def _raise_deadlock(self) -> None:
        """Diagnose and raise the runtime deadlock: everyone is blocked."""
        waiting = {
            name: state.blocked_on
            for name, state in self._processes.items()
            if state.blocked
        }
        # Wait-for edges: blocked process -> the peer of the channel.
        wait_for: dict[str, str] = {}
        for name, channel_name in waiting.items():
            channel = self.system.channel(channel_name)
            peer = channel.consumer if channel.producer == name else channel.producer
            wait_for[name] = peer
        cycle = _find_wait_cycle(wait_for)
        detail = ", ".join(f"{p} on {c}" for p, c in sorted(waiting.items()))
        raise SimulationDeadlock(
            f"simulation deadlock: all runnable processes are blocked ({detail})",
            cycle=cycle,
            waiting=waiting,
        )

    def _collect(self) -> SimulationResult:
        return SimulationResult(
            iterations={n: s.iteration for n, s in self._processes.items()},
            times={n: s.time for n, s in self._processes.items()},
            completion_times={
                n: list(s.completion_times) for n, s in self._processes.items()
            },
            compute_cycles={n: s.compute_cycles for n, s in self._processes.items()},
            stall_cycles={
                n: s.total_stall_cycles() for n, s in self._processes.items()
            },
            channel_transfers={
                n: c.transfers for n, c in self._channels.items()
            },
            sink_payloads={k: list(v) for k, v in self._sink_payloads.items()},
            stall_breakdown={
                n: row
                for n, s in self._processes.items()
                if (row := {
                    ch: st.cycles
                    for ch, st in s.stalls.items()
                    if st.cycles
                })
            },
        )

    def _record_metrics(self, result: SimulationResult, steps: int) -> None:
        """End-of-run aggregates under the stable ``sim.*`` metric names."""
        metrics = self._metrics
        assert metrics is not None
        metrics.counter("sim.runs").add(1)
        metrics.counter("sim.steps").add(steps)
        metrics.counter("sim.iterations").add(sum(result.iterations.values()))
        metrics.counter("sim.transfers").add(
            sum(result.channel_transfers.values())
        )
        metrics.counter("sim.compute_cycles").add(
            sum(result.compute_cycles.values())
        )
        metrics.counter("sim.stall_cycles").add(
            sum(result.stall_cycles.values())
        )


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
