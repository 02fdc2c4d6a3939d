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
game and the test oracles use.  :attr:`StructureEntry.circular_wait`
decodes a deadlock back to the design, by row and node index: the one
witness that every deadlock report prints.

Analyses map back to the system by index: :class:`_Decoder` turns a
node id into its process or channel and a place row into its statement
or buffered channel, and no name is ever parsed.  The names themselves
are systematic and written only here, for reports and DOT: transition
``ch:a`` is channel ``a`` (``ch:a.put``/``ch:a.get`` for buffered
channels), transition ``proc:P2`` is the computation of ``P2``, place
``P2/put:b`` is P2's put statement on ``b``, ``P2/comp`` its
computation, and ``a/data``/``a/credit`` are a buffered channel's queue
and free slots.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import ValidationError
from repro.ir import OP_COMPUTE, OP_GET, LoweredIR, lower
from repro.tmg.deadlock import _token_free_cycle
from repro.tmg.event_graph import EventGraph, contract
from repro.tmg.graph import TimedMarkedGraph

#: The name scheme, spelled by :func:`_marked_rows` (transitions) and
#: :class:`_Decoder` (places) only.
CHANNEL_PREFIX = "ch:"
PROCESS_PREFIX = "proc:"
PUT_SUFFIX = ".put"
GET_SUFFIX = ".get"
DATA_SUFFIX = "/data"
CREDIT_SUFFIX = "/credit"
COMPUTE_SUFFIX = "/comp"


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


class _Decoder:
    """Decodes the integer ids of an IR's marked graph back to the
    design, by index (see :func:`_marked_rows` for the id order): a place
    row to its name or statement, channel and process nodes to their
    names.  Nothing is decoded from a name."""

    def __init__(
        self,
        ir: LoweredIR,
        buffered: list[int],
        buffered_get: list[int],
        offsets: list[int],
    ):
        self.ir = ir
        #: The cids of the buffered channels, in row order.
        self.buffered = buffered
        #: Their get nodes, ascending.  Channel nodes come in cid order,
        #: one per channel plus one per buffered channel, so node ``u`` of
        #: the first ``n_channels + len(buffered)`` is channel
        #: ``u - bisect_right(buffered_get, u)``.
        self.buffered_get = buffered_get
        #: Per pid, the row of its first statement place.
        self.offsets = offsets

    def statement(self, row: int) -> tuple[int, int] | None:
        """``(pid, index)`` of the statement whose place is ``row``, or
        ``None`` for a buffered channel's data or credit place."""
        if row < 2 * len(self.buffered):
            return None
        pid = bisect_right(self.offsets, row) - 1
        return pid, row - self.offsets[pid]

    def __call__(self, row: int) -> str:
        """The name of place ``row``."""
        ir = self.ir
        located = self.statement(row)
        if located is None:
            channel = ir.channels[self.buffered[row // 2]]
            return channel + (CREDIT_SUFFIX if row % 2 else DATA_SUFFIX)
        pid, i = located
        process = ir.processes[pid]
        op = ir.op_kinds[pid][i]
        if op == OP_COMPUTE:
            return process + COMPUTE_SUFFIX
        kind = "get" if op == OP_GET else "put"
        return f"{process}/{kind}:{ir.channels[ir.op_args[pid][i]]}"

    def elements(
        self, nodes: Sequence[int]
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The processes whose computation is among ``nodes``, in order,
        and the channels whose transitions are, in order of first
        appearance (a buffered channel's put and get nodes are one
        channel)."""
        ir, gets = self.ir, self.buffered_get
        n_fixed = ir.n_channels + len(gets)
        return (
            tuple(ir.processes[u - n_fixed] for u in nodes if u >= n_fixed),
            tuple(
                ir.channels[cid]
                for cid in dict.fromkeys(
                    u - bisect_right(gets, u) for u in nodes if u < n_fixed
                )
            ),
        )

    def credit_channels(self, rows: Iterable[int]) -> list[str]:
        """The channels whose credit place is among place ``rows``, in
        order."""
        ir, buffered = self.ir, self.buffered
        limit = 2 * len(buffered)
        return [
            ir.channels[buffered[row // 2]]
            for row in rows
            if row < limit and row % 2
        ]


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
    decoder: _Decoder


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
    for cid, name in enumerate(ir.channels):
        put_node.append(len(names))
        if ir.buffered[cid]:
            names.append(CHANNEL_PREFIX + name + PUT_SUFFIX)
            names.append(CHANNEL_PREFIX + name + GET_SUFFIX)
            fixed += (ir.channel_latencies[cid], 0)
        else:
            names.append(CHANNEL_PREFIX + name)
            fixed.append(ir.channel_latencies[cid])
        get_node.append(len(names) - 1)
    compute = len(names)
    names.extend(PROCESS_PREFIX + process for process in ir.processes)

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
        _Decoder(ir, buffered, [get_node[cid] for cid in buffered], offsets),
    )


class CircularWait(NamedTuple):
    """A token-free cycle in the design's vocabulary.

    ``cycle`` is the circular wait as process and channel names, e.g.
    ``("d", "f", "P5", "g")`` for the motivating example's Listing-1
    deadlock; the put and get sides of a buffered channel merge into the
    channel's name.  ``statements`` holds one ``(process, index,
    waits_for)`` triple per statement place on the cycle: statement
    ``index`` (0-based, as in
    :meth:`~repro.core.system.ChannelOrdering.statements_of`) of
    ``process`` runs only after channel ``waits_for`` completes
    (``None``: after the process computes).
    """

    cycle: tuple[str, ...]
    statements: tuple[tuple[str, int, str | None], ...]


@dataclass(eq=False)
class StructureEntry:
    """The latency-independent event graph of one lowered configuration.

    The contracted CSR lists of :func:`_marked_rows` (see
    :class:`~repro.tmg.event_graph.EventGraph`).  Every edge's delay is
    its target transition's: fixed for a channel transition, the
    process's latency for a computation, so :meth:`instantiate` fills in
    latencies in one pass over ``target``.
    """

    #: The lowered IR this structure was compiled from (the entry's
    #: cache key).
    ir: LoweredIR
    names: tuple[str, ...]
    start: list[int]
    target: list[int]
    tokens: list[int]
    place: list[int]
    #: Per channel transition (the first nodes), its fixed delay.
    fixed: list[int]
    #: Node ids and place rows back to the design.
    decoder: _Decoder

    @cached_property
    def circular_wait(self) -> CircularWait | None:
        """The token-free cycle decoded to the design, or None if live.

        Each cycle edge's place row names the element its target node
        fires: a statement place, that statement's channel (or process,
        for the compute); a buffered channel's data or credit place, that
        channel.  Every token-free cycle crosses a statement place, since
        a buffered channel's two places hold ``effective_capacity >= 1``
        tokens between them.
        """
        nodes = _token_free_cycle(self.start, self.target, self.tokens)
        if nodes is None:
            return None
        ir, rows, start = self.ir, self.decoder, self.start
        fired: list[str] = []  # fired[j]: the element of nodes[j + 1]
        statements: list[tuple[str, int, str | None]] = []
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            # Contracted: one edge per node pair.
            edge = self.target.index(v, start[u], start[u + 1])
            row = self.place[edge]
            located = rows.statement(row)
            if located is None:
                fired.append(ir.channels[rows.buffered[row // 2]])
                continue
            pid, i = located
            kinds, args = ir.op_kinds[pid], ir.op_args[pid]
            process = ir.processes[pid]
            fired.append(
                process if kinds[i] == OP_COMPUTE else ir.channels[args[i]]
            )
            # The chain is cyclic: statement 0 follows the last one.
            waits_for = (
                None if kinds[i - 1] == OP_COMPUTE
                else ir.channels[args[i - 1]]
            )
            statements.append((process, i, waits_for))
        elements = fired[-1:] + fired[:-1]
        return CircularWait(
            tuple(n for j, n in enumerate(elements) if n != elements[j - 1]),
            tuple(statements),
        )

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
            place_name=self.decoder,
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
        decoder=rows.decoder,
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
    #: The latency-free structure ``graph`` instantiates.
    structure: StructureEntry = field(repr=False, compare=False)
    #: The effective latency of every process.
    latencies: Mapping[str, int] = field(repr=False, compare=False)

    @property
    def ir(self) -> LoweredIR:
        """The lowered program the model was built from."""
        return self.structure.ir

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
                rows.decoder(row), rows.names[source], rows.names[target],
                tokens,
            )
        return tmg


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
    structure = build_structure(ir)
    return SystemTmg(
        graph=structure.instantiate(latencies),
        system=system,
        ordering=ordering,
        structure=structure,
        latencies=latencies,
    )
