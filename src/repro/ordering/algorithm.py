"""Algorithm 1: deadlock-free, throughput-optimizing channel ordering.

Three steps (Section 4) produce, in ``O(|E| log |E|)``, a statement order
for every process.

**Forward Labeling** traverses the system from the testbench sources with a
FIFO queue.  When a vertex ``x`` is processed, each of its outgoing arcs is
considered following ``x``'s current put order, and the arc *head* is
labeled with ``(weight, timestamp)``:

    weight = MaxInArcWeight(x) + SumOutArcLatency(x) + VertexLatency(x)

where ``MaxInArcWeight`` is the maximum head weight among the labeled
incoming arcs of ``x``, ``SumOutArcLatency`` the total latency of the arcs
leaving ``x``, and the timestamp a global progressive counter.  A successor
is enqueued when its last *gating* incoming arc has been visited.

**Backward Labeling** is the mirror image, with sources and sinks, inputs
and outputs, heads and tails swapped: from the sinks, a vertex's incoming
arcs are considered in ascending order of their *forward* timestamps, and
each arc *tail* is labeled with

    weight = MaxOutArcWeight(x) + SumInArcLatency(x) + VertexLatency(x)

and a fresh progressive timestamp.  Both passes are one traversal,
:func:`_label`, run twice over integer endpoint tables.

**Final Ordering** then sorts each process's arcs:

* **gets** by *ascending* head weight — read first from the channel that
  ends the path with the smallest aggregate latency, because its data
  arrives first;
* **puts** by *descending* tail weight — write first to the channel that
  starts the path with the largest remaining aggregate latency, because its
  consumer chain needs the data soonest;
* ties broken by *ascending* timestamps, which the paper notes is required
  to avoid deadlock on symmetric structures (two processes that tie on
  weights must resolve their mutual channels in a consistent global order;
  the traversal timestamps provide exactly that order).

**Feedback loops.** The paper's pseudo-code assumes the quorum condition
("last visiting arc") is eventually met for every vertex, which holds for
DAGs.  Real systems (the paper's MPEG-2 included) contain feedback loops;
those are live only when some channel on the loop carries pre-loaded data
(``initial_tokens > 0``).  Channels with initial tokens are therefore
*non-gating*: they do not hold back the traversal (their data is available
from the start) and contribute to ``MaxInArcWeight`` only once labeled.
Vertices whose every gating count is zero are seeded too, so closed systems
(no testbench) start from them alone.  If the traversal still cannot reach
every vertex, some of the remaining vertices lie on a token-free cycle —
no statement order can keep such a system live, so a
:class:`~repro.errors.DeadlockError` is raised with one such cycle as the
witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, NamedTuple

from repro.core.system import ChannelOrdering, ProcessKind, SystemGraph
from repro.errors import DeadlockError, ValidationError
from repro.obs.metrics import active, count, timed


@dataclass(frozen=True)
class LabelingResult:
    """Arc labels of a full forward+backward run, keyed by channel name."""

    heads: Mapping[str, tuple[int, int]]
    tails: Mapping[str, tuple[int, int]]

    def head(self, channel: str) -> tuple[int, int]:
        """(weight, timestamp) placed on the arc head by Forward Labeling."""
        try:
            return self.heads[channel]
        except KeyError:
            raise ValidationError(
                f"channel {channel!r} was not forward-labeled"
            ) from None

    def tail(self, channel: str) -> tuple[int, int]:
        """(weight, timestamp) placed on the arc tail by Backward Labeling."""
        try:
            return self.tails[channel]
        except KeyError:
            raise ValidationError(
                f"channel {channel!r} was not backward-labeled"
            ) from None


@dataclass(frozen=True)
class OrderingOutcome:
    """Result of Algorithm 1: the ordering plus the labels that justify it."""

    ordering: ChannelOrdering
    labels: LabelingResult


def channel_ordering(
    system: SystemGraph,
    initial_ordering: ChannelOrdering | None = None,
) -> ChannelOrdering:
    """Compute the optimized channel ordering of a system (Algorithm 1).

    With a registry active (:func:`repro.obs.collect`), each run records
    the stable ``ordering.*`` counters and timer (runs, labeling time,
    processes whose statement order changed — the algorithm's "swaps")
    documented in ``docs/OBSERVABILITY.md``.

    Args:
        system: System with current process latencies (from the selected
            HLS micro-architectures) and channel latencies.
        initial_ordering: The order in which Forward Labeling considers the
            put statements of each process — "an order given by the
            designer or the suboptimal of Section 2".  Defaults to the
            declaration order.  The *result* does not depend on this order
            except through timestamp tie-breaks.

    Raises:
        DeadlockError: The system contains a dependency cycle with no
            pre-loaded data; no ordering can make it live.
    """
    count("ordering.runs")
    with timed("ordering.label"):
        ordering = _final_ordering(*_labels(system, initial_ordering))
    if active() is not None:  # the diff walks every process
        initial = initial_ordering or ChannelOrdering.declaration_order(system)
        count("ordering.changed_processes", len(ordering.differs_from(initial)))
    return ordering


def channel_ordering_with_labels(
    system: SystemGraph,
    initial_ordering: ChannelOrdering | None = None,
) -> OrderingOutcome:
    """:func:`channel_ordering`, additionally exposing the arc labels
    (useful for reports, tests, and the worked example of Fig. 4)."""
    tables, head, tail = _labels(system, initial_ordering)
    names = tables.channels
    return OrderingOutcome(
        ordering=_final_ordering(tables, head, tail),
        labels=LabelingResult(
            heads=dict(zip(names, zip(head[0], head[1]))),
            tails=dict(zip(names, zip(tail[0], tail[1]))),
        ),
    )


_Labels = tuple[list[int], list[int]]  # (weight, timestamp) per cid


def _labels(
    system: SystemGraph, initial_ordering: ChannelOrdering | None
) -> tuple[_Tables, _Labels, _Labels]:
    """The system's tables, then Forward and Backward Labeling: the head
    and the tail labels."""
    tables = _tables(system)
    put_order = tables.outs
    if initial_ordering is not None:
        initial_ordering.validate(system)
        cid = {name: c for c, name in enumerate(tables.channels)}
        put_order = [
            cid[name]
            for process in tables.processes
            for name in initial_ordering.puts_of(process)
        ]
    head = _label(tables, "forward", put_order)
    # Each vertex's in-arcs by ascending forward timestamp: the keys
    # order by consumer first, and timestamps stay below k.
    k = len(tables.channels) + 1
    by_stamp = [y * k + t for y, t in zip(tables.consumer, head[1])]
    in_order = sorted(tables.ins, key=by_stamp.__getitem__)
    return tables, head, _label(tables, "backward", in_order)


def _final_ordering(
    tables: _Tables, head: _Labels, tail: _Labels
) -> ChannelOrdering:
    """Sort each process's arcs by one integer key per arc.

    The timestamps of one pass are distinct and below ``k``, so
    ``w·k + t`` orders as the pair ``(w, t)`` for any integer weight:
    gets by ascending ``(head weight, head timestamp)``, puts by
    descending tail weight, then ascending tail timestamp.  The result is
    a permutation of every process's ports by construction
    (``tests/ordering/test_final_ordering.py`` checks it).
    """
    (head_w, head_t), (tail_w, tail_t) = head, tail
    k = len(tables.channels) + 1
    top = max(tail_w, default=0)
    get_key = [w * k + t for w, t in zip(head_w, head_t)]
    put_key = [(top - w) * k + t for w, t in zip(tail_w, tail_t)]
    name = tables.channels.__getitem__
    by_get, by_put = get_key.__getitem__, put_key.__getitem__
    ins, in_start = tables.ins, tables.in_start
    outs, out_start = tables.outs, tables.out_start
    return ChannelOrdering(
        gets={
            p: tuple(map(name, sorted(ins[in_start[x]:in_start[x + 1]], key=by_get)))
            for x, p in enumerate(tables.processes)
        },
        puts={
            p: tuple(map(name, sorted(outs[out_start[x]:out_start[x + 1]], key=by_put)))
            for x, p in enumerate(tables.processes)
        },
    )


class _Tables(NamedTuple):
    """One system's attributes and endpoints by process id (pid) and
    channel id (cid), both in declaration order.  The arcs of each
    process are flat CSR lists: pid ``x``'s in-arcs are
    ``ins[in_start[x]:in_start[x + 1]]`` and its out-arcs
    ``outs[out_start[x]:out_start[x + 1]]``, in declaration order."""

    system: str
    processes: list[str]
    kinds: list[ProcessKind]
    delay: list[int]
    channels: list[str]
    producer: list[int]
    consumer: list[int]
    latency: list[int]
    tokens: list[int]
    in_start: list[int]
    ins: list[int]
    out_start: list[int]
    outs: list[int]


def _tables(system: SystemGraph) -> _Tables:
    processes = system.processes
    channels = system.channels
    pid = {p.name: i for i, p in enumerate(processes)}
    producer = [pid[c.producer] for c in channels]
    consumer = [pid[c.consumer] for c in channels]
    arcs = range(len(channels))
    return _Tables(
        system=system.name,
        processes=[p.name for p in processes],
        kinds=[p.kind for p in processes],
        delay=[p.latency for p in processes],
        channels=[c.name for c in channels],
        producer=producer,
        consumer=consumer,
        latency=[c.latency for c in channels],
        tokens=[c.initial_tokens for c in channels],
        in_start=_starts(consumer, len(processes)),
        ins=sorted(arcs, key=consumer.__getitem__),
        out_start=_starts(producer, len(processes)),
        outs=sorted(arcs, key=producer.__getitem__),
    )


def _starts(ends: list[int], n: int) -> list[int]:
    """CSR offsets of arcs grouped by end: ``n + 1`` running counts."""
    counts = [0] * n
    for x in ends:
        counts[x] += 1
    return list(accumulate(counts, initial=0))


def _label(
    tables: _Tables, direction: str, arcs: list[int]
) -> tuple[list[int], list[int]]:
    """One labeling traversal; returns ``(weight, timestamp)`` per cid.

    ``arcs`` holds the arcs each vertex labels, in labeling order, laid
    out as CSR over the same offsets as those arcs in the tables.
    Forward, these are its out-arcs, labeled at their heads from the
    weights of its in-arcs, and the traversal starts at the sources;
    backward swaps in and out, heads and tails, sources and sinks.
    Unlabeled arcs read as weight zero.
    """
    if direction == "forward":
        seed, reads, read_start = ProcessKind.SOURCE, tables.ins, tables.in_start
        near, far, arc_start = tables.producer, tables.consumer, tables.out_start
    else:
        seed, reads, read_start = ProcessKind.SINK, tables.outs, tables.out_start
        near, far, arc_start = tables.consumer, tables.producer, tables.in_start
    tokens, latency, kinds = tables.tokens, tables.latency, tables.kinds
    n = len(kinds)
    weight = [0] * len(tokens)
    stamp = [0] * len(tokens)
    gating = [0] * n  # zero-token arcs read by each vertex
    span = tables.delay[:]  # VertexLatency plus the latency of its arcs
    for c, (x, y) in enumerate(zip(near, far)):
        span[x] += latency[c]
        if not tokens[c]:
            gating[y] += 1
    visited = [0] * n
    queue = deque(x for x in range(n) if kinds[x] is seed)
    queue.extend(x for x in range(n) if kinds[x] is not seed and gating[x] == 0)
    if not queue:
        raise ValidationError(
            f"system {tables.system!r} has no testbench {seed.value} and no "
            f"pre-loaded starting point for {direction.capitalize()} Labeling"
        )
    enqueued = [False] * n
    for x in queue:
        enqueued[x] = True

    t = 1
    while queue:
        x = queue.popleft()
        best = 0
        for c in reads[read_start[x]:read_start[x + 1]]:
            if weight[c] > best:
                best = weight[c]
        w = best + span[x]
        for c in arcs[arc_start[x]:arc_start[x + 1]]:
            y = far[c]
            if tokens[c] == 0:
                visited[y] += 1
            weight[c] = w
            stamp[c] = t
            t += 1
            if not enqueued[y] and visited[y] >= gating[y]:
                enqueued[y] = True
                queue.append(y)

    unreached = sorted(tables.processes[x] for x in range(n) if not enqueued[x])
    if unreached:
        # An unreached vertex has an unlabeled zero-token arc; its near
        # end is unreached too, so walking such arcs back must repeat.
        names = tables.processes
        x = names.index(unreached[0])
        step: dict[int, int] = {}  # vertex -> its position in the walk
        while x not in step:
            step[x] = len(step)
            x = next(
                near[c]
                for c in reads[read_start[x]:read_start[x + 1]]
                if tokens[c] == 0 and not stamp[c]
            )
        loop = [names[y] for y, i in step.items() if i >= step[x]]
        if direction == "forward":
            loop.reverse()  # the walk ran against the data flow
        first = loop.index(min(loop))
        loop = loop[first:] + loop[:first]
        raise DeadlockError(
            f"{direction} labeling cannot reach processes {unreached}: "
            f"{' -> '.join(loop + loop[:1])} is a dependency loop with no "
            "pre-loaded data, which deadlocks under every statement order",
            cycle=loop,
        )
    return weight, stamp
