"""Section 3: the marked graph of a system, and the TMG built from it.

The construction follows the paper's model for blocking primitives:

* the **computation phase** of each process is a single place feeding a
  transition whose delay is the process's micro-architecture latency;
* each **channel** is one transition whose delay is the channel's minimum
  transfer latency, fed by two places — the *put-place* inside the
  producer's chain and the *get-place* inside the consumer's chain;
* the **serial nature** of a process becomes a cyclic chain: the transition
  of each statement produces into the place of the next statement, and the
  first read follows the last write (Fig. 3);
* the **initial marking** places one token in the first get-place of every
  process that reads, and one token in the first put-place of every
  testbench source (an environment always ready to provide data).

**Buffered and pre-loaded channels.** A channel with ``capacity > 0`` is
a FIFO rather than a rendezvous, and a channel with ``initial_tokens > 0``
(e.g. an initialized frame store that makes a feedback loop live) cannot
be a pure rendezvous either: its first transfers complete without the
producer having computed anything, so it necessarily buffers.  Both are
modelled with the split FIFO structure — a *put transition* (delay =
transfer latency) and a zero-delay *get transition* joined by a data place
holding the pre-loaded tokens and a credit place holding the free slots
(``max(capacity, initial_tokens) − initial_tokens``).  Placing the initial
tokens on the producer's put-place instead would be wrong: it would put two
tokens in circulation on the producer's serial chain, modelling a process
that overlaps its own iterations.

:func:`marked_transitions` and :func:`marked_places` are the one place
this construction is written down: they turn a
:class:`~repro.ir.LoweredIR` into a stream of plain transition and place
rows.  :func:`build_tmg` loads those rows into a
:class:`~repro.tmg.graph.TimedMarkedGraph`; the incremental analysis
(:mod:`repro.perf.incremental`) and the static analyses
(:mod:`repro.absint`) read them directly.

Names are systematic so analyses can be mapped back to the system:
transition ``ch:a`` is channel ``a`` (``ch:a.put``/``ch:a.get`` for
buffered channels), transition ``proc:P2`` is the computation of ``P2``,
place ``P2/put:b`` is P2's put statement on ``b``, ``P2/comp`` its
computation, and ``a/data``/``a/credit`` are a buffered channel's queue
and free slots.  This module owns that scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ValidationError
from repro.ir import OP_COMPUTE, OP_GET, LoweredIR, lower
from repro.tmg.graph import TimedMarkedGraph

CHANNEL_PREFIX = "ch:"
PROCESS_PREFIX = "proc:"
PUT_SUFFIX = ".put"
GET_SUFFIX = ".get"
DATA_SUFFIX = "/data"
CREDIT_SUFFIX = "/credit"
COMPUTE_SUFFIX = "/comp"


def channel_transition(channel: str) -> str:
    """Transition name of a (rendezvous) channel."""
    return CHANNEL_PREFIX + channel


def buffered_put_transition(channel: str) -> str:
    """Producer-side transition name of a buffered (pre-loaded) channel."""
    return CHANNEL_PREFIX + channel + PUT_SUFFIX


def buffered_get_transition(channel: str) -> str:
    """Consumer-side transition name of a buffered (pre-loaded) channel."""
    return CHANNEL_PREFIX + channel + GET_SUFFIX


def process_transition(process: str) -> str:
    """Transition name of a process's computation phase."""
    return PROCESS_PREFIX + process


def statement_place(process: str, kind: str, channel: str | None = None) -> str:
    """Place name of one statement in a process chain.

    ``kind`` is ``"get"``, ``"put"`` or ``"compute"``; get/put take the
    channel name.
    """
    if kind == "compute":
        return process + COMPUTE_SUFFIX
    if channel is None:
        raise ValidationError("get/put statement places need a channel name")
    return f"{process}/{kind}:{channel}"


def data_place(channel: str) -> str:
    """The place holding a buffered channel's queued items."""
    return channel + DATA_SUFFIX


def credit_place(channel: str) -> str:
    """The place holding a buffered channel's free slots."""
    return channel + CREDIT_SUFFIX


def critical_processes(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Processes whose computation transition lies on ``cycle``."""
    return tuple(
        name[len(PROCESS_PREFIX):]
        for name in cycle
        if name.startswith(PROCESS_PREFIX)
    )


def critical_channels(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Channels whose transition lies on ``cycle`` (put/get sides of a
    buffered channel map back to the channel; duplicates removed, in order
    of first appearance)."""
    seen: dict[str, None] = {}
    for name in cycle:
        if not name.startswith(CHANNEL_PREFIX):
            continue
        channel = name[len(CHANNEL_PREFIX):]
        for suffix in (PUT_SUFFIX, GET_SUFFIX):
            if channel.endswith(suffix):
                channel = channel[: -len(suffix)]
        seen[channel] = None
    return tuple(seen)


def effective_latencies(
    system: SystemGraph,
    process_latencies: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """The latency of every process under an override map, validated.

    Overridden processes take the override, the rest keep the latency
    stored on the system.  This is the one place overrides are resolved,
    so the uncached and the cached analysis accept and reject the same
    maps with the same messages.

    Raises:
        ValidationError: An override names no process of ``system`` or
            is negative.
    """
    latencies = {p.name: p.latency for p in system.processes}
    for name, latency in (process_latencies or {}).items():
        if name not in latencies:
            raise ValidationError(
                f"latency override for unknown process {name!r}"
            )
        if latency < 0:
            raise ValidationError(
                f"latency override for {name!r} must be >= 0, got {latency}"
            )
        latencies[name] = latency
    return latencies


class MarkedTransition(NamedTuple):
    """One transition of the marked graph, with its delay binding.

    Attributes:
        name: The systematic transition name (``ch:a``, ``proc:P2``, ...).
        process: The pid whose latency is the delay (a computation
            transition), or ``None`` when the delay is fixed.
        delay: The fixed delay: the channel latency, 0 on the get side
            of a buffered channel (and 0, unused, for computations).
    """

    name: str
    process: int | None
    delay: int


class MarkedPlace(NamedTuple):
    """One place of the marked graph.

    Attributes:
        name: The systematic place name (``P2/put:b``, ``c/data``, ...).
        source: The transition producing into this place.
        target: The transition consuming from this place.
        tokens: The initial marking.
    """

    name: str
    source: str
    target: str
    tokens: int


def model_name(ir: LoweredIR) -> str:
    """The name of the performance model of ``ir`` (error messages)."""
    return f"{ir.system_name}.tmg"


def _channel_sides(ir: LoweredIR) -> list[tuple[str, str]]:
    """Per cid, the transitions a put and a get on the channel fire."""
    sides: list[tuple[str, str]] = []
    for cid, channel in enumerate(ir.channels):
        if ir.buffered[cid]:
            sides.append(
                (buffered_put_transition(channel), buffered_get_transition(channel))
            )
        else:
            name = channel_transition(channel)
            sides.append((name, name))
    return sides


def marked_transitions(ir: LoweredIR) -> Iterator[MarkedTransition]:
    """The transitions of ``ir``'s marked graph, in TMG insertion order:
    every channel's (its put and get sides when buffered), then every
    process's computation."""
    for cid, (put, get) in enumerate(_channel_sides(ir)):
        yield MarkedTransition(put, None, ir.channel_latencies[cid])
        if ir.buffered[cid]:
            yield MarkedTransition(get, None, 0)
    for pid, process in enumerate(ir.processes):
        yield MarkedTransition(process_transition(process), pid, 0)


def marked_places(ir: LoweredIR) -> Iterator[MarkedPlace]:
    """The places of ``ir``'s marked graph, in TMG insertion order: every
    buffered channel's data and credit places, then every process's
    cyclic statement chain (see the module docstring).

    Streamed, so a consumer that loads them one by one never holds the
    whole table; deterministic, so two IRs with the same structural hash
    yield the same places name for name.
    """
    sides = _channel_sides(ir)
    for cid, channel in enumerate(ir.channels):
        if ir.buffered[cid]:
            put, get = sides[cid]
            initial = ir.initial_tokens[cid]
            capacity = ir.effective_capacities[cid]
            yield MarkedPlace(data_place(channel), put, get, initial)
            yield MarkedPlace(credit_place(channel), get, put, capacity - initial)
    for pid, process in enumerate(ir.processes):
        compute = process_transition(process)
        # The transition each statement fires, and the statement's place.
        fires: list[str] = []
        names: list[str] = []
        for op, arg in zip(ir.op_kinds[pid], ir.op_args[pid]):
            if op == OP_COMPUTE:
                fires.append(compute)
                names.append(statement_place(process, "compute"))
            elif op == OP_GET:
                fires.append(sides[arg][1])
                names.append(statement_place(process, "get", ir.channels[arg]))
            else:
                fires.append(sides[arg][0])
                names.append(statement_place(process, "put", ir.channels[arg]))
        marked = ir.first_marked[pid]
        previous = fires[-1]  # the first statement follows the last
        for i, (name, fire) in enumerate(zip(names, fires)):
            yield MarkedPlace(name, previous, fire, 1 if i == marked else 0)
            previous = fire


@dataclass(frozen=True)
class SystemTmg:
    """A built performance model, with back-references to the system."""

    tmg: TimedMarkedGraph
    system: SystemGraph
    ordering: ChannelOrdering

    def critical_processes(self, cycle: tuple[str, ...]) -> tuple[str, ...]:
        """Processes whose computation transition lies on ``cycle``."""
        return critical_processes(cycle)

    def critical_channels(self, cycle: tuple[str, ...]) -> tuple[str, ...]:
        """Channels whose transition lies on ``cycle``."""
        return critical_channels(cycle)

    def processes_touching(self, places: tuple[str, ...]) -> tuple[str, ...]:
        """Processes owning any of the given statement places (in order of
        first appearance; duplicates removed)."""
        seen: list[str] = []
        for place in places:
            owner = place.split("/", 1)[0]
            if owner not in seen:
                seen.append(owner)
        return tuple(seen)


def build_tmg(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
    *,
    ir: LoweredIR | None = None,
) -> SystemTmg:
    """Build the blocking-protocol TMG of a system under an ordering.

    The system is first compiled to its :class:`~repro.ir.LoweredIR`
    (memoized; callers that already hold the IR pass it to skip even the
    memo probe), and the TMG is loaded from :func:`marked_transitions`
    and :func:`marked_places`, in their order.

    Args:
        system: The system topology with default latencies.
        ordering: Statement orders; defaults to declaration order.
        process_latencies: Optional per-process latency overrides (used by
            design-space exploration to evaluate an implementation
            selection without rebuilding the system).  Latencies are the
            one quantity *not* in the IR — it is latency-free by design.
        ir: The pre-lowered IR of ``(system, ordering)``, if available.

    Returns:
        A :class:`SystemTmg` wrapping the TMG and the provenance needed to
        interpret analysis results at the system level.

    Raises:
        ValidationError: See :func:`effective_latencies`.
    """
    latencies = effective_latencies(system, process_latencies)
    if ordering is None:
        ordering = ChannelOrdering.declaration_order(system)
    if ir is None:
        ir = lower(system, ordering)
    tmg = TimedMarkedGraph(model_name(ir))
    for name, pid, delay in marked_transitions(ir):
        tmg.add_transition(
            name, delay if pid is None else latencies[ir.processes[pid]]
        )
    for name, source, target, tokens in marked_places(ir):
        tmg.add_place(name, source, target, tokens)
    return SystemTmg(tmg=tmg, system=system, ordering=ordering)
