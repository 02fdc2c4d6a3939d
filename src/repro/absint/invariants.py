"""Token-conservation invariants and cycle-based occupancy bounds.

Firing a marked-graph transition consumes one token from each input
place and produces one into each output place, so for any directed cycle
exactly one consumed and one produced place lie on the cycle: **the
token count of every directed cycle is a firing invariant**.  Three
families of invariants follow for the structural marked graph of a
configuration (the integer rows of :func:`repro.model.build._marked_rows`):

* **process-cycle** — each process's cyclic statement chain carries
  exactly one token forever (the serial-execution discipline);
* **channel-conservation** — for a buffered channel, the data place and
  the credit place form a two-place cycle, so ``occupancy + free slots``
  equals the effective capacity at all times;
* **min-token-cycle** — the occupancy of a buffered channel is the token
  count of its data place, and a place on a directed cycle can never
  hold more tokens than the whole cycle carries; the *minimum* token
  count over all cycles through the data place is therefore a sound
  occupancy upper bound.  On feedback loops this is dramatically tighter
  than the capacity (a loop circulating one token bounds every member
  FIFO at one item regardless of declared depth) — exactly the
  correlation the per-channel bounds of :mod:`repro.absint.engine` lose,
  recovered here by a token-weighted shortest-path search over node ids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate

from repro.ir import LoweredIR
from repro.model.build import _MarkedRows
from repro.tmg.event_graph import _components


@dataclass(frozen=True)
class TokenInvariant:
    """One proved token-conservation fact.

    Attributes:
        kind: ``"process-cycle"``, ``"channel-conservation"``, or
            ``"min-token-cycle"``.
        subject: The process or channel the invariant is about.
        tokens: The invariant token total (for ``min-token-cycle``, the
            occupancy bound it implies).
        detail: Human-readable statement of the invariant.
    """

    kind: str
    subject: str
    tokens: int
    detail: str


def token_invariants(
    ir: LoweredIR, cycle_bounds: dict[int, int]
) -> tuple[TokenInvariant, ...]:
    """The invariant catalog of ``ir`` (deterministic, name-sorted).

    ``cycle_bounds`` is the :func:`min_cycle_occupancy_bounds` result;
    a ``min-token-cycle`` invariant is emitted only where it improves on
    the trivial capacity bound.
    """
    invariants: list[TokenInvariant] = []
    for pid in sorted(
        range(ir.n_processes), key=lambda p: ir.processes[p]
    ):
        if not ir.comm_indices[pid]:
            continue
        name = ir.processes[pid]
        invariants.append(
            TokenInvariant(
                kind="process-cycle",
                subject=name,
                tokens=1,
                detail=(
                    f"the cyclic statement chain of {name!r} carries "
                    "exactly one token under every firing sequence "
                    "(serial execution)"
                ),
            )
        )
    for cid in sorted(
        range(ir.n_channels), key=lambda c: ir.channels[c]
    ):
        if not ir.buffered[cid]:
            continue
        name = ir.channels[cid]
        capacity = ir.effective_capacities[cid]
        invariants.append(
            TokenInvariant(
                kind="channel-conservation",
                subject=name,
                tokens=capacity,
                detail=(
                    f"occupancy({name}) + free slots({name}) = "
                    f"{capacity} at all times (data/credit conservation)"
                ),
            )
        )
        bound = cycle_bounds.get(cid)
        if bound is not None and bound < capacity:
            invariants.append(
                TokenInvariant(
                    kind="min-token-cycle",
                    subject=name,
                    tokens=bound,
                    detail=(
                        f"a directed cycle through {name!r} carries only "
                        f"{bound} token(s), so its occupancy can never "
                        f"exceed {bound} (declared depth {capacity})"
                    ),
                )
            )
    return tuple(invariants)


def min_cycle_occupancy_bounds(
    ir: LoweredIR, rows: _MarkedRows
) -> dict[int, int]:
    """Per buffered cid, the minimum cycle token count through its data
    place — *when it beats the trivial capacity bound*.

    The data place of channel ``c`` runs ``put(c) -> get(c)`` and holds
    ``m0`` tokens; any directed cycle through it closes with a path
    ``get(c) -> ... -> put(c)``, so the cycle total is ``m0`` plus the
    token-weighted shortest path back.  The credit place alone closes a
    two-place cycle of exactly the effective capacity, so the search is
    bounded: paths of weight ``>= capacity - m0`` cannot improve on it
    and are pruned.  Every place on a path that is not pruned is lighter
    than that threshold, so with ``c``'s data place it lies in one
    strongly connected component of the graph of every data place and
    every place lighter than the largest threshold.  Those components
    are found once: a channel whose put and get fall in different ones
    is skipped, and the others search only inside their own.  ``rows``
    are ``ir``'s marked rows, whose first places are each buffered
    channel's data and credit places, in cid order.

    Channels without an entry provably have no cycle tighter than their
    capacity.
    """
    buffered = [cid for cid in range(ir.n_channels) if ir.buffered[cid]]
    thresholds = [
        ir.effective_capacities[cid] - ir.initial_tokens[cid] for cid in buffered
    ]
    limit = max(thresholds, default=0)
    if limit <= 0:
        return {}  # every credit cycle is already optimal
    kept = [
        row for row, tokens in enumerate(rows.tokens)
        if tokens < limit or (row < 2 * len(buffered) and row % 2 == 0)
    ]
    kept.sort(key=rows.source.__getitem__)  # a CSR by source, rows in order
    start = [0] * (len(rows.names) + 1)
    for row in kept:
        start[rows.source[row] + 1] += 1
    component = [0] * len(rows.names)
    heads = [rows.target[row] for row in kept]
    for k, members in enumerate(_components(list(accumulate(start)), heads)):
        for node in members:
            component[node] = k
    successors: list[list[tuple[int, int]]] = [[] for _ in rows.names]
    for row in kept:
        source, target = rows.source[row], rows.target[row]
        if component[source] == component[target]:
            successors[source].append((target, rows.tokens[row]))
    bounds: dict[int, int] = {}
    data_rows = range(0, 2 * len(buffered), 2)
    for data_row, cid, threshold in zip(data_rows, buffered, thresholds):
        get, put = rows.target[data_row], rows.source[data_row]
        if threshold <= 0 or component[get] != component[put]:
            continue  # the credit cycle is optimal, or no path leads back
        distance = _bounded_shortest_path(
            successors, start=get, goal=put, threshold=threshold
        )
        if distance is not None:
            bounds[cid] = ir.initial_tokens[cid] + distance
    return bounds


def _bounded_shortest_path(
    successors: list[list[tuple[int, int]]],
    start: int,
    goal: int,
    threshold: int,
) -> int | None:
    """Dijkstra from ``start`` to ``goal`` over token weights, pruning
    every path of weight ``>= threshold``; ``None`` when no cheaper path
    exists.  The channel's own credit place, the direct ``start -> goal``
    edge, weighs exactly ``threshold``, so it is pruned like any other
    path that cannot beat the capacity."""
    best = [threshold] * len(successors)  # no path yet: the pruning bound
    best[start] = 0
    heap: list[tuple[int, int]] = [(0, start)]
    while heap:
        distance, node = heapq.heappop(heap)
        if distance > best[node]:
            continue
        if node == goal:
            return distance
        for successor, weight in successors[node]:
            candidate = distance + weight
            if candidate < best[successor]:
                best[successor] = candidate
                heapq.heappush(heap, (candidate, successor))
    return None
