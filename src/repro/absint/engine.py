"""The occupancy-interval fixpoint over the lowered IR.

Program points are the per-process *communication slots* of the
:class:`~repro.ir.LoweredIR` (indices into
:attr:`~repro.ir.LoweredIR.comm_indices` — the same untimed projection
the exhaustive verifier of :mod:`repro.verify.semantics` explores).  The
abstract state is Cartesian:

* per process, the **set of reachable communication slots**;
* per buffered channel, one occupancy :class:`~repro.absint.domain.Interval`
  joined over every interleaving.

Abstract enabledness mirrors the concrete rules — a put needs its slot
reachable and ``lo < capacity`` (some covered state has a free slot), a
get needs ``hi > 0``, a rendezvous needs both endpoint slots — and
effects are lattice joins, so chaotic iteration reaches a fixpoint that
**over-approximates every reachable concrete state** (the soundness
contract; ``tests/absint/test_soundness.py`` hammers it with random
systems).  All three enabledness conditions are monotone in the abstract
order (slot sets only grow, ``lo`` only falls, ``hi`` only rises), so
the set of actions enabled *at* the fixpoint equals the set enabled at
any point during iteration — dead-channel and unreachable-op facts read
off the final state are exact with respect to the abstraction.

The Cartesian product forgets cross-channel correlations, so on feedback
loops the raw fixpoint drifts to full capacity; the cycle-invariant pass
(:mod:`repro.absint.invariants`) restores the lost bound by intersecting
with the minimum token count over directed cycles through each channel.
Results are cached under the IR's content address with the same
:class:`~repro.cache.LruCache` semantics every other analysis uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

from repro.absint.certificate import (
    DeadlockFreedomCertificate,
    find_token_free_cycle,
    issue_certificate,
)
from repro.absint.domain import Interval
from repro.absint.invariants import (
    TokenInvariant,
    min_cycle_occupancy_bounds,
    token_invariants,
)
from repro.cache import MISS, memo
from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir import OP_COMPUTE, OP_GET, OP_NAMES, OP_PUT, LoweredIR, lower
from repro.model.build import marked_places

#: Interval bumps tolerated per channel before widening jumps straight to
#: the capacity bound (keeps fixpoint rounds independent of FIFO depth).
WIDENING_BUMPS = 8


@dataclass(frozen=True)
class OccupancyBound:
    """The proved occupancy range of one buffered channel.

    ``lo``/``hi`` over-approximate the occupancies *any* interleaving can
    exhibit; ``hi < declared_capacity`` means the declared depth is
    provably over-provisioned (rule ERM601).
    """

    channel: str
    declared_capacity: int
    effective_capacity: int
    initial_tokens: int
    lo: int
    hi: int

    def format(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class UnreachableOp:
    """One statically-unreachable statement of a process program.

    Attributes:
        process: The owning process.
        index: Statement index in the full cyclic program (the same
            numbering lint witnesses and verifier traces use).
        kind: ``"get"``, ``"compute"``, or ``"put"``.
        channel: The channel of a communication statement, ``None`` for
            a compute.
    """

    process: str
    index: int
    kind: str
    channel: str | None


@dataclass(frozen=True)
class AbsIntResult:
    """Everything the abstract interpreter proves about one IR.

    Attributes:
        ir_hash: Content address of the analyzed IR.
        system_name: The analyzed system's name.
        rounds: Chaotic-iteration passes until the fixpoint.
        bounds: Per buffered channel (name-sorted), the occupancy range.
        invariants: The token-conservation catalog.
        dead_channels: Channels (name-sorted) on which no action is ever
            abstractly enabled — they provably never transfer.
        unreachable_ops: Statements no interleaving ever executes.
        certificate: The deadlock-freedom certificate, when one exists.
        token_free_cycle: The witness cycle when one does not (exactly
            one of the two is set for any IR).
    """

    ir_hash: str
    system_name: str
    rounds: int
    bounds: tuple[OccupancyBound, ...]
    invariants: tuple[TokenInvariant, ...]
    dead_channels: tuple[str, ...]
    unreachable_ops: tuple[UnreachableOp, ...]
    certificate: DeadlockFreedomCertificate | None
    token_free_cycle: tuple[str, ...] | None

    @property
    def deadlock_free(self) -> bool:
        """True when a certificate proves no deadlock is reachable."""
        return self.certificate is not None

    def bound_of(self, channel: str) -> OccupancyBound | None:
        """The occupancy bound of ``channel`` (``None`` if rendezvous)."""
        for bound in self.bounds:
            if bound.channel == channel:
                return bound
        return None


#: Analysis results keyed by IR content address (perf/ LRU semantics).
_CACHE = memo("absint", maxsize=256)


def analyze(
    system: SystemGraph, ordering: ChannelOrdering | None = None
) -> AbsIntResult:
    """Analyze a ``(system, ordering)`` pair (lowers, then delegates)."""
    resolved = ordering or ChannelOrdering.declaration_order(system)
    return analyze_ir(lower(system, resolved))


def analyze_ir(ir: LoweredIR) -> AbsIntResult:
    """The cached full analysis of one lowered configuration."""
    cached = _CACHE.get(ir.structural_hash)
    if cached is not MISS:
        return cast(AbsIntResult, cached)
    result = _analyze_uncached(ir)
    _CACHE.put(ir.structural_hash, result)
    return result


def clear_analysis_cache() -> None:
    """Drop every cached result (tests and benchmarks)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# The fixpoint
# ----------------------------------------------------------------------


class _Fixpoint:
    """Mutable working state of one chaotic-iteration run."""

    def __init__(self, ir: LoweredIR):
        self.ir = ir
        #: Reachable communication slots per pid (empty chain => empty).
        self.pos: list[set[int]] = [
            {0} if ir.comm_indices[pid] else set()
            for pid in range(ir.n_processes)
        ]
        #: Occupancy interval per cid (``None`` for rendezvous channels).
        self.occ: list[Interval | None] = [
            Interval(ir.initial_tokens[cid], ir.initial_tokens[cid])
            if ir.buffered[cid]
            else None
            for cid in range(ir.n_channels)
        ]
        self.hi_bumps = [0] * ir.n_channels
        self.lo_drops = [0] * ir.n_channels
        #: Producer put slots / consumer get slots per cid.
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

    # -- enabledness (monotone in the abstract order) -------------------

    def _ready(self, pid: int, slots: list[int]) -> list[int]:
        return [s for s in slots if s in self.pos[pid]]

    def enabled_put_slots(self, cid: int) -> list[int]:
        """Producer slots from which a put/rendezvous on cid can fire."""
        ready = self._ready(self.ir.producers[cid], self.put_slots[cid])
        if not ready:
            return []
        interval = self.occ[cid]
        if interval is None:  # rendezvous: need a matching consumer
            if not self._ready(self.ir.consumers[cid], self.get_slots[cid]):
                return []
            return ready
        if interval.lo >= self.ir.effective_capacities[cid]:
            return []
        return ready

    def enabled_get_slots(self, cid: int) -> list[int]:
        """Consumer slots from which a get/rendezvous on cid can fire."""
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

    # -- effects (lattice joins) ----------------------------------------

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
        hi = (
            capacity
            if self.hi_bumps[cid] >= WIDENING_BUMPS
            else interval.hi + 1
        )
        self.occ[cid] = Interval(interval.lo, hi)
        return True

    def _drop_lo(self, cid: int) -> bool:
        interval = self.occ[cid]
        assert interval is not None
        if interval.lo <= 0:
            return False
        self.lo_drops[cid] += 1
        lo = (
            0
            if self.lo_drops[cid] >= WIDENING_BUMPS
            else interval.lo - 1
        )
        self.occ[cid] = Interval(lo, interval.hi)
        return True

    def step(self, cid: int) -> bool:
        """Apply every enabled action on ``cid`` once; True on change."""
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


def _analyze_uncached(ir: LoweredIR) -> AbsIntResult:
    fixpoint = _Fixpoint(ir)
    rounds = fixpoint.run()

    cycle_bounds = min_cycle_occupancy_bounds(ir, marked_places(ir))
    invariants = token_invariants(ir, cycle_bounds)

    bounds: list[OccupancyBound] = []
    for cid in sorted(range(ir.n_channels), key=lambda c: ir.channels[c]):
        interval = fixpoint.occ[cid]
        if interval is None:
            continue
        hi = interval.hi
        cycle_bound = cycle_bounds.get(cid)
        if cycle_bound is not None and cycle_bound < hi:
            hi = cycle_bound
        lo = min(interval.lo, hi)
        bounds.append(
            OccupancyBound(
                channel=ir.channels[cid],
                declared_capacity=ir.capacities[cid],
                effective_capacity=ir.effective_capacities[cid],
                initial_tokens=ir.initial_tokens[cid],
                lo=lo,
                hi=hi,
            )
        )

    dead_channels = _dead_channels(ir, fixpoint)
    unreachable = _unreachable_ops(ir, fixpoint)
    certificate = issue_certificate(ir)
    cycle = None if certificate is not None else find_token_free_cycle(ir)
    return AbsIntResult(
        ir_hash=ir.structural_hash,
        system_name=ir.system_name,
        rounds=rounds,
        bounds=tuple(bounds),
        invariants=invariants,
        dead_channels=dead_channels,
        unreachable_ops=unreachable,
        certificate=certificate,
        token_free_cycle=cycle,
    )


def _dead_channels(ir: LoweredIR, fixpoint: _Fixpoint) -> tuple[str, ...]:
    """Channels with no abstractly-enabled action at the fixpoint.

    Monotonicity makes this exact for the abstraction: an action never
    enabled at the fixpoint was never enabled at any earlier point, so a
    dead channel provably never transfers in any interleaving.
    """
    dead: list[str] = []
    for cid in range(ir.n_channels):
        if fixpoint.enabled_put_slots(cid) or fixpoint.enabled_get_slots(cid):
            continue
        dead.append(ir.channels[cid])
    return tuple(sorted(dead))


def _unreachable_ops(
    ir: LoweredIR, fixpoint: _Fixpoint
) -> tuple[UnreachableOp, ...]:
    """Statements no interleaving ever executes.

    A communication statement executes iff its action is abstractly
    enabled with its slot reachable; a compute executes when the process
    advances past the cyclically-preceding communication statement (the
    untimed projection folds computes into that advance — see
    :mod:`repro.verify.semantics`).  Compute statements of channel-less
    processes always run (the process free-runs).
    """
    fired_slots: list[set[int]] = [set() for _ in range(ir.n_processes)]
    for cid in range(ir.n_channels):
        fired_slots[ir.producers[cid]].update(fixpoint.enabled_put_slots(cid))
        fired_slots[ir.consumers[cid]].update(fixpoint.enabled_get_slots(cid))

    unreachable: list[UnreachableOp] = []
    order = sorted(range(ir.n_processes), key=lambda p: ir.processes[p])
    for pid in order:
        kinds = ir.op_kinds[pid]
        args = ir.op_args[pid]
        comm = ir.comm_indices[pid]
        slot_of = {op_index: slot for slot, op_index in enumerate(comm)}
        preceding = 0  # comm statements seen before the current index
        for index, kind in enumerate(kinds):
            if kind == OP_COMPUTE:
                if comm:
                    slot = (preceding - 1) % len(comm)
                    if slot not in fired_slots[pid]:
                        unreachable.append(
                            UnreachableOp(
                                process=ir.processes[pid],
                                index=index,
                                kind=OP_NAMES[OP_COMPUTE],
                                channel=None,
                            )
                        )
                continue
            if slot_of[index] not in fired_slots[pid]:
                unreachable.append(
                    UnreachableOp(
                        process=ir.processes[pid],
                        index=index,
                        kind=OP_NAMES[OP_GET] if kind == OP_GET else OP_NAMES[OP_PUT],
                        channel=ir.channels[args[index]],
                    )
                )
            preceding += 1
    return tuple(unreachable)
