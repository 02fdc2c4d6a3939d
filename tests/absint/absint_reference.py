"""The name-keyed static analysis that ``repro.absint`` replaced.

A differential oracle for :func:`repro.absint.analyze_ir`: the same
facts computed the older, slower way.

* the occupancy **interval fixpoint** — chaotic iteration over per-pid
  reachable slot sets and per-channel occupancy intervals, widening to
  the capacity after :data:`WIDENING_BUMPS` bumps;
* the **Commoner ranking** — Kahn's sort over a name-keyed adjacency of
  the token-free places, ready nodes and successors in name order;
* the **min-token-cycle bounds** — Dijkstra over transition names.

Places are read from ``build_tmg(...).tmg.places``, the bipartite TMG,
never from the integer rows the engine reads.  ``reference_analyze``
returns an :class:`~repro.absint.AbsIntResult` that must equal the
engine's field for field.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.absint.certificate import (
    CERTIFICATE_VERSION,
    METHOD_SIPHON_RANKING,
    DeadlockFreedomCertificate,
)
from repro.absint.engine import AbsIntResult, OccupancyBound, UnreachableOp
from repro.absint.invariants import token_invariants
from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir import OP_COMPUTE, OP_GET, OP_NAMES, OP_PUT, LoweredIR, lower
from repro.model import build_structure, build_tmg
from tests.model.witness_reference import design_cycle, transition_cycle

#: Interval bumps tolerated per channel before widening jumps straight to
#: the capacity bound.
WIDENING_BUMPS = 8


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``."""

    lo: int
    hi: int


class Fixpoint:
    """Mutable working state of one chaotic-iteration run."""

    def __init__(self, ir: LoweredIR):
        self.ir = ir
        self.pos: list[set[int]] = [
            {0} if ir.comm_indices[pid] else set()
            for pid in range(ir.n_processes)
        ]
        self.occ: list[Interval | None] = [
            Interval(ir.initial_tokens[cid], ir.initial_tokens[cid])
            if ir.buffered[cid]
            else None
            for cid in range(ir.n_channels)
        ]
        self.hi_bumps = [0] * ir.n_channels
        self.lo_drops = [0] * ir.n_channels
        self.put_slots: list[list[int]] = [[] for _ in range(ir.n_channels)]
        self.get_slots: list[list[int]] = [[] for _ in range(ir.n_channels)]
        for pid in range(ir.n_processes):
            kinds = ir.op_kinds[pid]
            args = ir.op_args[pid]
            for slot, op_index in enumerate(ir.comm_indices[pid]):
                cid = args[op_index]
                if kinds[op_index] == OP_PUT:
                    self.put_slots[cid].append(slot)
                else:
                    self.get_slots[cid].append(slot)

    def _ready(self, pid: int, slots: list[int]) -> list[int]:
        return [s for s in slots if s in self.pos[pid]]

    def enabled_put_slots(self, cid: int) -> list[int]:
        ready = self._ready(self.ir.producers[cid], self.put_slots[cid])
        if not ready:
            return []
        interval = self.occ[cid]
        if interval is None:
            if not self._ready(self.ir.consumers[cid], self.get_slots[cid]):
                return []
            return ready
        if interval.lo >= self.ir.effective_capacities[cid]:
            return []
        return ready

    def enabled_get_slots(self, cid: int) -> list[int]:
        ready = self._ready(self.ir.consumers[cid], self.get_slots[cid])
        if not ready:
            return []
        interval = self.occ[cid]
        if interval is None:
            if not self._ready(self.ir.producers[cid], self.put_slots[cid]):
                return []
            return ready
        if interval.hi <= 0:
            return []
        return ready

    def _advance(self, pid: int, slots: list[int]) -> bool:
        n = len(self.ir.comm_indices[pid])
        changed = False
        for slot in slots:
            successor = (slot + 1) % n
            if successor not in self.pos[pid]:
                self.pos[pid].add(successor)
                changed = True
        return changed

    def _bump_hi(self, cid: int) -> bool:
        interval = self.occ[cid]
        assert interval is not None
        capacity = self.ir.effective_capacities[cid]
        if interval.hi >= capacity:
            return False
        self.hi_bumps[cid] += 1
        hi = capacity if self.hi_bumps[cid] >= WIDENING_BUMPS else interval.hi + 1
        self.occ[cid] = Interval(interval.lo, hi)
        return True

    def _drop_lo(self, cid: int) -> bool:
        interval = self.occ[cid]
        assert interval is not None
        if interval.lo <= 0:
            return False
        self.lo_drops[cid] += 1
        lo = 0 if self.lo_drops[cid] >= WIDENING_BUMPS else interval.lo - 1
        self.occ[cid] = Interval(lo, interval.hi)
        return True

    def step(self, cid: int) -> bool:
        changed = False
        puts = self.enabled_put_slots(cid)
        if puts:
            if self._advance(self.ir.producers[cid], puts):
                changed = True
            if self.occ[cid] is not None and self._bump_hi(cid):
                changed = True
        gets = self.enabled_get_slots(cid)
        if gets:
            if self._advance(self.ir.consumers[cid], gets):
                changed = True
            if self.occ[cid] is not None and self._drop_lo(cid):
                changed = True
        return changed

    def run(self) -> int:
        """Iterate to the fixpoint; returns the number of full passes."""
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for cid in range(self.ir.n_channels):
                if self.step(cid):
                    changed = True
        return rounds


def tmg_places(
    system: SystemGraph, ordering: ChannelOrdering
) -> list[tuple[str, str, str, int]]:
    """``(name, source, target, tokens)`` of every place of the TMG."""
    return [
        (p.name, p.source, p.target, p.tokens)
        for p in build_tmg(system, ordering).tmg.places
    ]


def kahn_ranks(places: list[tuple[str, str, str, int]]) -> dict[str, int] | None:
    """Topological ranks of the token-free places, or ``None`` on a cycle."""
    edges: dict[str, list[str]] = {}
    counts: dict[str, int] = {}
    for _, source, target, tokens in places:
        if tokens > 0:
            continue
        edges.setdefault(source, []).append(target)
        edges.setdefault(target, [])
        counts[target] = counts.get(target, 0) + 1
        counts.setdefault(source, 0)
    queue = deque(sorted(node for node, degree in counts.items() if degree == 0))
    order: dict[str, int] = {}
    while queue:
        node = queue.popleft()
        order[node] = len(order)
        for successor in sorted(edges[node]):
            counts[successor] -= 1
            if counts[successor] == 0:
                queue.append(successor)
    if len(order) != len(counts):
        return None
    return order


def cycle_bounds(
    ir: LoweredIR, places: list[tuple[str, str, str, int]]
) -> dict[int, int]:
    """Per buffered cid, the minimum cycle token count through its data
    place, where it beats the capacity."""
    adjacency: dict[str, list[tuple[str, int]]] = {}
    for _, source, target, tokens in places:
        adjacency.setdefault(source, []).append((target, tokens))
        adjacency.setdefault(target, [])
    bounds: dict[int, int] = {}
    for cid, channel in enumerate(ir.channels):
        if not ir.buffered[cid]:
            continue
        initial = ir.initial_tokens[cid]
        threshold = ir.effective_capacities[cid] - initial
        if threshold <= 0:
            continue
        start, goal = f"ch:{channel}.get", f"ch:{channel}.put"
        best = {start: 0}
        heap = [(0, start)]
        while heap:
            distance, node = heapq.heappop(heap)
            if distance > best.get(node, threshold):
                continue
            if node == goal:
                bounds[cid] = initial + distance
                break
            for successor, weight in adjacency.get(node, ()):
                if node == start and successor == goal:
                    continue  # the channel's own credit place
                candidate = distance + weight
                if candidate < best.get(successor, threshold):
                    best[successor] = candidate
                    heapq.heappush(heap, (candidate, successor))
    return bounds


def reference_analyze(
    system: SystemGraph, ordering: ChannelOrdering
) -> AbsIntResult:
    """The full static analysis of ``(system, ordering)``."""
    ir = lower(system, ordering)
    fixpoint = Fixpoint(ir)
    fixpoint.run()
    places = tmg_places(system, ordering)
    bounds_by_cid = cycle_bounds(ir, places)

    bounds = []
    for cid in sorted(range(ir.n_channels), key=lambda c: ir.channels[c]):
        interval = fixpoint.occ[cid]
        if interval is None:
            continue
        hi = min(interval.hi, bounds_by_cid.get(cid, interval.hi))
        bounds.append(
            OccupancyBound(
                channel=ir.channels[cid],
                declared_capacity=ir.capacities[cid],
                effective_capacity=ir.effective_capacities[cid],
                initial_tokens=ir.initial_tokens[cid],
                lo=min(interval.lo, hi),
                hi=hi,
            )
        )

    fired: list[set[int]] = [set() for _ in range(ir.n_processes)]
    dead = []
    for cid in range(ir.n_channels):
        puts = fixpoint.enabled_put_slots(cid)
        gets = fixpoint.enabled_get_slots(cid)
        fired[ir.producers[cid]].update(puts)
        fired[ir.consumers[cid]].update(gets)
        if not puts and not gets:
            dead.append(ir.channels[cid])

    unreachable = []
    for pid in sorted(range(ir.n_processes), key=lambda p: ir.processes[p]):
        comm = ir.comm_indices[pid]
        slot_of = {op_index: slot for slot, op_index in enumerate(comm)}
        preceding = 0
        for index, kind in enumerate(ir.op_kinds[pid]):
            if kind == OP_COMPUTE:
                if comm and (preceding - 1) % len(comm) not in fired[pid]:
                    unreachable.append(
                        UnreachableOp(ir.processes[pid], index, "compute", None)
                    )
                continue
            if slot_of[index] not in fired[pid]:
                unreachable.append(
                    UnreachableOp(
                        ir.processes[pid],
                        index,
                        OP_NAMES[OP_GET] if kind == OP_GET else OP_NAMES[OP_PUT],
                        ir.channels[ir.op_args[pid][index]],
                    )
                )
            preceding += 1

    ranks = kahn_ranks(places)
    certificate = None
    if ranks is not None:
        certificate = DeadlockFreedomCertificate(
            ir_hash=ir.structural_hash,
            system_name=ir.system_name,
            method=METHOD_SIPHON_RANKING,
            version=CERTIFICATE_VERSION,
            ranks=tuple(sorted(ranks.items())),
        )
    cycle = (
        None if certificate else design_cycle(transition_cycle(build_structure(ir)))
    )
    return AbsIntResult(
        ir_hash=ir.structural_hash,
        system_name=ir.system_name,
        bounds=tuple(bounds),
        invariants=token_invariants(ir, bounds_by_cid),
        dead_channels=tuple(sorted(dead)),
        unreachable_ops=tuple(unreachable),
        certificate=certificate,
        token_free_cycle=cycle,
    )
