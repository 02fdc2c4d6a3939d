"""The occupancy bounds and dead structure of a lowered IR.

Program points are the per-process *communication slots* of the
:class:`~repro.ir.LoweredIR` (indices into
:attr:`~repro.ir.LoweredIR.comm_indices` — the same untimed projection
the exhaustive verifier of :mod:`repro.verify.semantics` explores).
:func:`_closure` computes, in one worklist pass, which slots any
interleaving can ever fire: a rendezvous fires when both its slots are
reachable, a buffered put when its slot is reachable and the channel
starts below capacity or its get fires, a buffered get when its slot is
reachable and the channel starts non-empty or its put fires, and a
firing makes the next slot of its process reachable.

An occupancy-interval fixpoint over the same rules proves no more.  Its
enabledness conditions are monotone, so an action it enables once stays
enabled, and every enabled put (get) keeps raising ``hi`` (lowering
``lo``) until the interval saturates: its least fixpoint on a buffered
channel is always ``[0 if a get fires else m0, capacity if a put fires
else m0]`` (docs/THEORY.md §7), which is how :func:`_analyze_uncached`
reads the bounds off the closure.  The result **over-approximates every
reachable concrete state** (the soundness contract;
``tests/absint/test_soundness.py`` hammers it with random systems, and
``tests/absint/test_differential.py`` holds the closure to the interval
fixpoint of ``tests/absint/absint_reference.py``).

The per-channel view forgets cross-channel correlations, so on feedback
loops the interval reaches full capacity; the cycle-invariant pass
(:mod:`repro.absint.invariants`) restores the lost bound by intersecting
with the minimum token count over directed cycles through each channel.
Results are cached under the lowered IR itself, with the same
:class:`~repro.cache.LruCache` semantics every other analysis uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

from repro.absint.certificate import DeadlockFreedomCertificate, _certify
from repro.absint.invariants import (
    TokenInvariant,
    min_cycle_occupancy_bounds,
    token_invariants,
)
from repro.cache import MISS, memo
from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir import OP_COMPUTE, OP_NAMES, OP_PUT, LoweredIR, lower
from repro.model.build import _marked_rows, _structure


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
        bounds: Per buffered channel (name-sorted), the occupancy range.
        invariants: The token-conservation catalog.
        dead_channels: Channels (name-sorted) on which no put or get
            ever fires — they provably never transfer.
        unreachable_ops: Statements no interleaving ever executes.
        certificate: The deadlock-freedom certificate, when one exists.
        token_free_cycle: The circular wait when no certificate exists,
            as process and channel names
            (:attr:`~repro.model.build.CircularWait.cycle`); exactly one
            of the two is set for any IR.
    """

    ir_hash: str
    system_name: str
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


#: Analysis results keyed by the lowered IR (perf/ LRU semantics).
_CACHE = memo("absint", maxsize=256)


def analyze(
    system: SystemGraph, ordering: ChannelOrdering | None = None
) -> AbsIntResult:
    """Analyze a ``(system, ordering)`` pair (lowers, then delegates)."""
    resolved = ordering or ChannelOrdering.declaration_order(system)
    return analyze_ir(lower(system, resolved))


def analyze_ir(ir: LoweredIR) -> AbsIntResult:
    """The cached full analysis of one lowered configuration."""
    cached = _CACHE.get(ir)
    if cached is not MISS:
        return cast(AbsIntResult, cached)
    result = _analyze_uncached(ir)
    _CACHE.put(ir, result)
    return result


def clear_analysis_cache() -> None:
    """Drop every cached result (tests and benchmarks)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# The reachability closure
# ----------------------------------------------------------------------


def _closure(ir: LoweredIR) -> tuple[list[bool], list[bool]]:
    """Per cid, whether its put ever fires and whether its get does.

    Each channel has one put slot, in its producer's chain, and one get
    slot, in its consumer's.  Slot 0 of every chain is reachable, and a
    firing makes its process's next slot reachable, so the slots that
    fire are a prefix of each chain: ``fired[pid]`` counts them, and the
    next one is where ``pid`` waits.  A slot fires once it is reachable
    and a rendezvous partner waits at its own slot, or a buffered put
    has ``m0 < capacity`` or a get on the channel that fires, or a
    buffered get has ``m0 > 0`` or a put that fires.  A process is
    re-examined whenever its partner fires on a shared channel, so the
    worklist drains after at most one firing per slot.
    """
    producers, consumers = ir.producers, ir.consumers
    put_slot = [0] * ir.n_channels
    get_slot = [0] * ir.n_channels
    chains: list[list[int]] = []
    for pid in range(ir.n_processes):
        args = ir.op_args[pid]
        chain = [args[i] for i in ir.comm_indices[pid]]
        for slot, cid in enumerate(chain):
            (put_slot if producers[cid] == pid else get_slot)[cid] = slot
        chains.append(chain)

    fired = [0] * ir.n_processes
    work = [pid for pid in range(ir.n_processes) if chains[pid]]
    while work:
        pid = work.pop()
        chain = chains[pid]
        while fired[pid] < len(chain):
            cid = chain[fired[pid]]
            put = producers[cid] == pid
            if put:
                partner, partner_slot = consumers[cid], get_slot[cid]
            else:
                partner, partner_slot = producers[cid], put_slot[cid]
            if not ir.buffered[cid]:
                if fired[partner] != partner_slot:
                    break  # the partner does not wait at its slot
                fired[partner] += 1
            elif fired[partner] <= partner_slot and not (
                ir.initial_tokens[cid] < ir.effective_capacities[cid]
                if put
                else ir.initial_tokens[cid] > 0
            ):
                break  # starts full (put) or empty (get); no other side fired
            fired[pid] += 1
            work.append(partner)

    put_fires = [fired[p] > slot for p, slot in zip(producers, put_slot)]
    get_fires = [fired[c] > slot for c, slot in zip(consumers, get_slot)]
    return put_fires, get_fires


def _analyze_uncached(ir: LoweredIR) -> AbsIntResult:
    put_fires, get_fires = _closure(ir)
    rows = _marked_rows(ir)
    cycle_bounds = min_cycle_occupancy_bounds(ir, rows)

    bounds: list[OccupancyBound] = []
    for cid in sorted(range(ir.n_channels), key=ir.channels.__getitem__):
        if not ir.buffered[cid]:
            continue
        initial = ir.initial_tokens[cid]
        hi = ir.effective_capacities[cid] if put_fires[cid] else initial
        hi = min(hi, cycle_bounds.get(cid, hi))
        lo = min(0 if get_fires[cid] else initial, hi)
        bounds.append(
            OccupancyBound(
                channel=ir.channels[cid],
                declared_capacity=ir.capacities[cid],
                effective_capacity=ir.effective_capacities[cid],
                initial_tokens=initial,
                lo=lo,
                hi=hi,
            )
        )

    certificate = _certify(ir, rows)
    wait = None if certificate else _structure(ir, rows).circular_wait
    return AbsIntResult(
        ir_hash=ir.structural_hash,
        system_name=ir.system_name,
        bounds=tuple(bounds),
        invariants=token_invariants(ir, cycle_bounds),
        dead_channels=tuple(sorted(
            ir.channels[cid]
            for cid in range(ir.n_channels)
            if not (put_fires[cid] or get_fires[cid])
        )),
        unreachable_ops=_unreachable_ops(ir, put_fires, get_fires),
        certificate=certificate,
        token_free_cycle=None if wait is None else wait.cycle,
    )


def _unreachable_ops(
    ir: LoweredIR, put_fires: list[bool], get_fires: list[bool]
) -> tuple[UnreachableOp, ...]:
    """Statements no interleaving ever executes.

    A communication statement executes iff its slot fires; a compute
    executes when the process advances past the cyclically-preceding
    communication statement (the untimed projection folds computes into
    that advance — see :mod:`repro.verify.semantics`).  Compute
    statements of channel-less processes always run (the process
    free-runs).
    """
    unreachable: list[UnreachableOp] = []
    for pid in sorted(range(ir.n_processes), key=ir.processes.__getitem__):
        process = ir.processes[pid]
        kinds = ir.op_kinds[pid]
        args = ir.op_args[pid]
        comm = ir.comm_indices[pid]
        fires = [
            (put_fires if kinds[i] == OP_PUT else get_fires)[args[i]]
            for i in comm
        ]
        preceding = -1  # the slot of the last comm statement seen
        for index, kind in enumerate(kinds):
            if kind == OP_COMPUTE:
                if comm and not fires[preceding]:
                    unreachable.append(
                        UnreachableOp(process, index, OP_NAMES[kind], None)
                    )
                continue
            preceding += 1
            if not fires[preceding]:
                unreachable.append(
                    UnreachableOp(
                        process, index, OP_NAMES[kind], ir.channels[args[index]]
                    )
                )
    return tuple(unreachable)
