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

:func:`_marked_rows` is the one place this construction is written down:
it turns a :class:`~repro.ir.LoweredIR` into integer transition and place
rows.  :func:`build_structure` contracts those rows into the integer
event graph that every cycle-time and liveness analysis runs on
(:class:`StructureEntry`, which :mod:`repro.perf` caches), and
:func:`build_tmg` instantiates it under the process latencies.  The
static analyses of :mod:`repro.absint` read the same rows, and
:attr:`SystemTmg.tmg` decodes them to names once, into the
:class:`~repro.tmg.graph.TimedMarkedGraph` that DOT export, the token
game and the test oracles use.

Names are systematic so analyses can be mapped back to the system:
transition ``ch:a`` is channel ``a`` (``ch:a.put``/``ch:a.get`` for
buffered channels), transition ``proc:P2`` is the computation of ``P2``,
place ``P2/put:b`` is P2's put statement on ``b``, ``P2/comp`` its
computation, and ``a/data``/``a/credit`` are a buffered channel's queue
and free slots.  This module owns that scheme.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ValidationError
from repro.ir import OP_COMPUTE, OP_GET, LoweredIR, lower
from repro.tmg.deadlock import _token_free_cycle
from repro.tmg.event_graph import EventGraph, contract
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


def model_name(ir: LoweredIR) -> str:
    """The name of the performance model of ``ir`` (error messages)."""
    return f"{ir.system_name}.tmg"


class _PlaceNames:
    """The name of each place row of an IR's marked graph, decoded from
    the IR by the naming helpers above (see :func:`_marked_rows` for the
    row order)."""

    def __init__(self, ir: LoweredIR, buffered: list[int], offsets: list[int]):
        self.ir = ir
        #: The cids of the buffered channels, in row order.
        self.buffered = buffered
        #: Per pid, the row of its first statement place.
        self.offsets = offsets

    def __call__(self, row: int) -> str:
        ir = self.ir
        if row < 2 * len(self.buffered):
            channel = ir.channels[self.buffered[row // 2]]
            return credit_place(channel) if row % 2 else data_place(channel)
        pid = bisect_right(self.offsets, row) - 1
        i = row - self.offsets[pid]
        process = ir.processes[pid]
        op = ir.op_kinds[pid][i]
        if op == OP_COMPUTE:
            return statement_place(process, "compute")
        kind = "get" if op == OP_GET else "put"
        return statement_place(process, kind, ir.channels[ir.op_args[pid][i]])


class _MarkedRows(NamedTuple):
    """``ir``'s marked graph as integer rows.

    Node ``u`` is transition ``names[u]``.  The first ``len(fixed)``
    nodes are the channel transitions, with fixed delays; node
    ``len(fixed) + pid`` is process ``pid``'s computation, whose delay is
    that process's latency.  Place row ``r`` runs from node
    ``source[r]`` to node ``target[r]`` and holds ``tokens[r]``.
    """

    names: tuple[str, ...]
    fixed: list[int]
    source: list[int]
    target: list[int]
    tokens: list[int]
    place_name: _PlaceNames


def _marked_rows(ir: LoweredIR) -> _MarkedRows:
    """The one writing-down of the Section-3 construction (see the module
    docstring), in TMG insertion order: every channel's transitions (its
    put and get sides when buffered), then every process's computation;
    every buffered channel's data and credit places, then every process's
    cyclic statement chain."""
    names: list[str] = []
    fixed: list[int] = []
    put_node: list[int] = []
    get_node: list[int] = []
    for cid, channel in enumerate(ir.channels):
        put_node.append(len(names))
        if ir.buffered[cid]:
            names.append(buffered_put_transition(channel))
            names.append(buffered_get_transition(channel))
            fixed += (ir.channel_latencies[cid], 0)
        else:
            names.append(channel_transition(channel))
            fixed.append(ir.channel_latencies[cid])
        get_node.append(len(names) - 1)
    compute = len(names)
    names.extend(process_transition(process) for process in ir.processes)

    source: list[int] = []
    target: list[int] = []
    tokens: list[int] = []
    buffered: list[int] = []
    for cid, is_buffered in enumerate(ir.buffered):
        if is_buffered:
            put, get = put_node[cid], get_node[cid]
            initial = ir.initial_tokens[cid]
            source += (put, get)
            target += (get, put)
            tokens += (initial, ir.effective_capacities[cid] - initial)
            buffered.append(cid)
    offsets: list[int] = []
    for pid, (kinds, args) in enumerate(zip(ir.op_kinds, ir.op_args)):
        offsets.append(len(source))
        # The transition each statement fires; the first statement
        # follows the last.
        fires = [
            compute + pid if op == OP_COMPUTE
            else get_node[arg] if op == OP_GET
            else put_node[arg]
            for op, arg in zip(kinds, args)
        ]
        source.append(fires[-1])
        source += fires[:-1]
        target += fires
        marking = [0] * len(fires)
        marking[ir.first_marked[pid]] = 1
        tokens += marking
    return _MarkedRows(
        tuple(names), fixed, source, target, tokens,
        _PlaceNames(ir, buffered, offsets),
    )


@dataclass(eq=False)
class StructureEntry:
    """The latency-independent event graph of one lowered configuration.

    The contracted CSR lists of :func:`_marked_rows` (see
    :class:`~repro.tmg.event_graph.EventGraph`).  Every edge's delay is
    its target transition's: fixed for a channel transition, the
    process's latency for a computation, so :meth:`instantiate` fills in
    latencies in one pass over ``target``.
    """

    #: The lowered IR this structure was compiled from; its
    #: ``structural_hash`` is the entry's cache key.
    ir: LoweredIR
    names: tuple[str, ...]
    start: list[int]
    target: list[int]
    tokens: list[int]
    place: list[int]
    #: Per channel transition (the first nodes), its fixed delay.
    fixed: list[int]
    place_name: Callable[[int], str]

    @cached_property
    def deadlock_cycle(self) -> list[str] | None:
        """Token-free cycle (deadlock witness) or None — structural,
        computed once."""
        cycle = _token_free_cycle(self.start, self.target, self.tokens)
        if cycle is None:
            return None
        return [self.names[u] for u in cycle]

    def instantiate(self, latencies: Mapping[str, int]) -> EventGraph:
        """The event graph under ``latencies`` (the full effective map of
        :func:`effective_latencies`).  Shares the structure's lists."""
        node_delay = self.fixed + [latencies[name] for name in self.ir.processes]
        return EventGraph(
            name=model_name(self.ir),
            names=self.names,
            start=self.start,
            target=self.target,
            tokens=self.tokens,
            delay=[node_delay[t] for t in self.target],
            place=self.place,
            place_name=self.place_name,
        )


def build_structure(ir: LoweredIR) -> StructureEntry:
    """Lower ``ir``'s marked graph straight to the contracted integer
    event graph, with no per-row objects."""
    return _structure(ir, _marked_rows(ir))


def _structure(ir: LoweredIR, rows: _MarkedRows) -> StructureEntry:
    """:func:`build_structure` from rows already decoded from ``ir``."""
    start, target, tokens, place = contract(
        len(rows.names), rows.source, rows.target, rows.tokens
    )
    return StructureEntry(
        ir=ir,
        names=rows.names,
        start=start,
        target=target,
        tokens=tokens,
        place=place,
        fixed=rows.fixed,
        place_name=rows.place_name,
    )


@dataclass(frozen=True)
class SystemTmg:
    """A built performance model, with back-references to the system.

    ``graph`` is the model's integer event graph, which every analysis
    reads.  ``tmg``, the bipartite :class:`TimedMarkedGraph` of Fig. 3,
    is built on first access (DOT export, the token game, oracles).
    """

    graph: EventGraph
    system: SystemGraph
    ordering: ChannelOrdering
    ir: LoweredIR = field(repr=False, compare=False)
    #: The effective latency of every process.
    latencies: Mapping[str, int] = field(repr=False, compare=False)

    @cached_property
    def tmg(self) -> TimedMarkedGraph:
        """The TMG, loaded from :func:`_marked_rows` in row order."""
        rows = _marked_rows(self.ir)
        delays = rows.fixed + [self.latencies[p] for p in self.ir.processes]
        tmg = TimedMarkedGraph(model_name(self.ir))
        for name, delay in zip(rows.names, delays):
            tmg.add_transition(name, delay)
        for row, (source, target, tokens) in enumerate(
            zip(rows.source, rows.target, rows.tokens)
        ):
            tmg.add_place(
                rows.place_name(row), rows.names[source], rows.names[target],
                tokens,
            )
        return tmg

    def critical_processes(self, cycle: tuple[str, ...]) -> tuple[str, ...]:
        """Processes whose computation transition lies on ``cycle``."""
        return critical_processes(cycle)

    def critical_channels(self, cycle: tuple[str, ...]) -> tuple[str, ...]:
        """Channels whose transition lies on ``cycle``."""
        return critical_channels(cycle)

    def processes_touching(self, places: tuple[str, ...]) -> tuple[str, ...]:
        """Processes owning any of the given statement places (in order of
        first appearance; duplicates removed)."""
        seen: dict[str, None] = {}
        for place in places:
            seen[place.split("/", 1)[0]] = None
        return tuple(seen)


def build_tmg(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
    *,
    ir: LoweredIR | None = None,
) -> SystemTmg:
    """Build the blocking-protocol performance model of a system under an
    ordering.

    The system is first compiled to its :class:`~repro.ir.LoweredIR`
    (memoized; callers that already hold the IR pass it to skip even the
    memo probe), then lowered by :func:`build_structure` and instantiated
    under the effective latencies.

    Args:
        system: The system topology with default latencies.
        ordering: Statement orders; defaults to declaration order.
        process_latencies: Optional per-process latency overrides (used by
            design-space exploration to evaluate an implementation
            selection without rebuilding the system).  Latencies are the
            one quantity *not* in the IR — it is latency-free by design.
        ir: The pre-lowered IR of ``(system, ordering)``, if available.

    Returns:
        A :class:`SystemTmg` wrapping the event graph (and, on demand, the
        TMG) and the provenance needed to interpret analysis results at
        the system level.

    Raises:
        ValidationError: See :func:`effective_latencies`.
    """
    latencies = effective_latencies(system, process_latencies)
    if ordering is None:
        ordering = ChannelOrdering.declaration_order(system)
    if ir is None:
        ir = lower(system, ordering)
    return SystemTmg(
        graph=build_structure(ir).instantiate(latencies),
        system=system,
        ordering=ordering,
        ir=ir,
        latencies=latencies,
    )
