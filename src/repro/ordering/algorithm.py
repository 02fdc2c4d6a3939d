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
        ordering = channel_ordering_with_labels(system, initial_ordering).ordering
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
    tables = _tables(system)
    put_order = tables.outs
    if initial_ordering is not None:
        initial_ordering.validate(system)
        cid = {name: c for c, name in enumerate(tables.channels)}
        put_order = [
            [cid[name] for name in initial_ordering.puts_of(process)]
            for process in tables.processes
        ]
    head_w, head_t = _label(tables, "forward", put_order)
    by_stamp = [sorted(arcs, key=head_t.__getitem__) for arcs in tables.ins]
    tail_w, tail_t = _label(tables, "backward", by_stamp)

    names = tables.channels
    gets: dict[str, tuple[str, ...]] = {}
    puts: dict[str, tuple[str, ...]] = {}
    for p, process in enumerate(tables.processes):
        gets[process] = tuple(
            names[c]
            for c in sorted(tables.ins[p], key=lambda c: (head_w[c], head_t[c]))
        )
        puts[process] = tuple(
            names[c]
            for c in sorted(tables.outs[p], key=lambda c: (-tail_w[c], tail_t[c]))
        )
    ordering = ChannelOrdering(gets=gets, puts=puts)
    ordering.validate(system)
    labels = LabelingResult(
        heads=dict(zip(names, zip(head_w, head_t))),
        tails=dict(zip(names, zip(tail_w, tail_t))),
    )
    return OrderingOutcome(ordering=ordering, labels=labels)


class _Tables(NamedTuple):
    """One system's attributes and endpoints by process id (pid) and
    channel id (cid), both in declaration order."""

    system: str
    processes: list[str]
    kinds: list[ProcessKind]
    delay: list[int]
    channels: list[str]
    producer: list[int]
    consumer: list[int]
    latency: list[int]
    tokens: list[int]
    ins: list[list[int]]
    outs: list[list[int]]


def _tables(system: SystemGraph) -> _Tables:
    processes = system.processes
    channels = system.channels
    pid = {p.name: i for i, p in enumerate(processes)}
    producer = [pid[c.producer] for c in channels]
    consumer = [pid[c.consumer] for c in channels]
    ins: list[list[int]] = [[] for _ in processes]
    outs: list[list[int]] = [[] for _ in processes]
    for c, (w, y) in enumerate(zip(producer, consumer)):
        outs[w].append(c)
        ins[y].append(c)
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
        ins=ins,
        outs=outs,
    )


def _label(
    tables: _Tables, direction: str, arcs: list[list[int]]
) -> tuple[list[int], list[int]]:
    """One labeling traversal; returns ``(weight, timestamp)`` per cid.

    ``arcs[x]`` lists the arcs vertex ``x`` labels, in labeling order.
    Forward, these are its out-arcs, labeled at their heads from the
    weights of its in-arcs, and the traversal starts at the sources;
    backward swaps in and out, heads and tails, sources and sinks.
    Unlabeled arcs read as weight zero.
    """
    if direction == "forward":
        seed, reads = ProcessKind.SOURCE, tables.ins
        near, far = tables.producer, tables.consumer
    else:
        seed, reads = ProcessKind.SINK, tables.outs
        near, far = tables.consumer, tables.producer
    tokens, latency, kinds = tables.tokens, tables.latency, tables.kinds
    n = len(kinds)
    weight = [0] * len(tokens)
    stamp = [0] * len(tokens)
    gating = [sum(1 for c in r if tokens[c] == 0) for r in reads]
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
        for c in reads[x]:
            if weight[c] > best:
                best = weight[c]
        w = best + sum(latency[c] for c in arcs[x]) + tables.delay[x]
        for c in arcs[x]:
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
            x = next(near[c] for c in reads[x] if tokens[c] == 0 and not stamp[c])
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
