"""Canonical labeling and automorphism discovery over the ``LoweredIR``.

The compositional flow of the paper replicates structure: identical
worker stages behind identical latency-insensitive interfaces.  Two
processes of a :class:`~repro.ir.LoweredIR` are *interchangeable* when
their integer opcode programs are identical up to a relabeling of
channel ids that is itself consistent with the channel endpoint tables —
i.e. when the IR has a nontrivial automorphism.  This module computes:

* the **automorphism group** as a set of verified generator
  permutations (one process permutation + one channel permutation each),
* the process and channel **orbits** under that group, and
* an orbit-invariant **canonical hash** (:attr:`SymmetryAnalysis.canonical_hash`)
  — equal for any two IRs that are isomorphic, sitting alongside the
  declaration-faithful :attr:`~repro.ir.LoweredIR.structural_hash`.

The algorithm is classic individualization–refinement (the McKay
family, scaled down to this IR's shape): a fixpoint color refinement
over joint process/channel signatures, a search tree that
individualizes one vertex of the first non-singleton cell per level,
leaf-level canonical renderings compared lexicographically, automorphisms
derived from equal-rendering leaves, orbit pruning with the discovered
generators, and backjumping to the deepest path position an automorphism
moves.  Every derived permutation is **defensively re-verified** against
the IR tables before it is trusted (:func:`respects_policy`), so orbits
are a sound under-approximation even if the search logic were wrong, and
the canonical hash is a plain SHA-256 of a full relabeled rendering, so
equal hashes imply isomorphic IRs regardless of how much of the tree was
pruned.

A node budget bounds pathological inputs: an exhausted search keeps the
(verified) generators found so far but *gives up* on canonicity —
``canonical_hash`` falls back to ``structural_hash`` and ``complete`` is
``False``.  Falling back is sound for every consumer: caches lose
sharing, never correctness.

Relaxed signature policies serve the ERM7xx lint rules:
:data:`ORDER_RELAXED` ignores statement positions (automorphisms of the
topology + channel attributes — the equivalence behind the
symmetric-ordering rule ERM702), :data:`ATTR_RELAXED` ignores channel
latency/capacity/tokens, and :data:`TOPOLOGY_RELAXED` ignores both —
the "would be symmetric if the capacities matched" family lens behind
ERM703.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence, cast

from repro.cache import MISS, memo
from repro.ir import OP_COMPUTE, OP_GET, OP_PUT, LoweredIR
from repro.sym.perm import (
    PairPerm,
    Perm,
    UnionFind,
    invert,
)

#: Signature ingredients a labeling run respects.  The exact policy is
#: the full IR equivalence; the relaxed ones drop one dimension each.
class SigPolicy(NamedTuple):
    respect_programs: bool
    respect_channel_attrs: bool


#: Full IR equivalence: programs, positions, and channel attributes.
EXACT = SigPolicy(respect_programs=True, respect_channel_attrs=True)
#: Topology + channel attributes; statement orders ignored (ERM702).
ORDER_RELAXED = SigPolicy(respect_programs=False, respect_channel_attrs=True)
#: Programs + positions; channel attributes ignored (ERM703).
ATTR_RELAXED = SigPolicy(respect_programs=True, respect_channel_attrs=False)
#: Pure endpoint topology: statement orders *and* channel attributes
#: ignored — the coarsest lens, grouping channels by communication-graph
#: shape alone (the "family" notion of ERM703).
TOPOLOGY_RELAXED = SigPolicy(respect_programs=False, respect_channel_attrs=False)

#: Render-format version tag, bumped whenever the canonical rendering
#: changes shape (it namespaces every canonical hash).
_RENDER_VERSION = "sym:v1"


# ----------------------------------------------------------------------
# Static per-IR tables
# ----------------------------------------------------------------------


def _comm_positions(ir: LoweredIR) -> tuple[Perm, Perm]:
    """Per cid: position among its producer's puts / consumer's gets.

    Each channel occurs exactly once as a ``put`` and once as a ``get``
    across all programs, so ``(producer pid, put position)`` identifies a
    channel — the anchor that lets process labelings induce channel
    labelings.
    """
    put_pos = [0] * ir.n_channels
    get_pos = [0] * ir.n_channels
    for pid in range(ir.n_processes):
        n_puts = n_gets = 0
        for kind, arg in zip(ir.op_kinds[pid], ir.op_args[pid]):
            if kind == OP_GET:
                get_pos[arg] = n_gets
                n_gets += 1
            elif kind == OP_PUT:
                put_pos[arg] = n_puts
                n_puts += 1
    return tuple(put_pos), tuple(get_pos)


def _incidence(
    ir: LoweredIR,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per pid: cids consumed (gets) and produced (puts)."""
    ins: list[list[int]] = [[] for _ in range(ir.n_processes)]
    outs: list[list[int]] = [[] for _ in range(ir.n_processes)]
    for cid in range(ir.n_channels):
        outs[ir.producers[cid]].append(cid)
        ins[ir.consumers[cid]].append(cid)
    return tuple(tuple(x) for x in ins), tuple(tuple(x) for x in outs)


def respects_policy(
    ir: LoweredIR, gp: Perm, gc: Perm, policy: SigPolicy = EXACT
) -> bool:
    """True when ``(gp, gc)`` is an automorphism w.r.t. ``policy``.

    This is the ground-truth check every candidate permutation must pass
    before anything downstream trusts it: endpoint tables and process
    kinds always; opcode programs with relabeled channel arguments when
    the policy respects programs; the channel attribute columns when it
    respects attributes.
    """
    if len(gp) != ir.n_processes or len(gc) != ir.n_channels:
        return False
    for pid in range(ir.n_processes):
        qid = gp[pid]
        if ir.process_kinds[pid] != ir.process_kinds[qid]:
            return False
        if policy.respect_programs:
            if ir.op_kinds[pid] != ir.op_kinds[qid]:
                return False
            for kind, arg, arg_q in zip(
                ir.op_kinds[pid], ir.op_args[pid], ir.op_args[qid]
            ):
                if kind != OP_COMPUTE and gc[arg] != arg_q:
                    return False
    for cid in range(ir.n_channels):
        did = gc[cid]
        if ir.producers[did] != gp[ir.producers[cid]]:
            return False
        if ir.consumers[did] != gp[ir.consumers[cid]]:
            return False
        if policy.respect_channel_attrs:
            if (
                ir.channel_latencies[cid] != ir.channel_latencies[did]
                or ir.capacities[cid] != ir.capacities[did]
                or ir.initial_tokens[cid] != ir.initial_tokens[did]
                or ir.buffered[cid] != ir.buffered[did]
                or ir.effective_capacities[cid]
                != ir.effective_capacities[did]
            ):
                return False
    return True


def is_automorphism(ir: LoweredIR, gp: Perm, gc: Perm) -> bool:
    """True when ``(gp, gc)`` is a full automorphism of the IR."""
    return respects_policy(ir, gp, gc, EXACT)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryAnalysis:
    """Everything one canonical-labeling run established about an IR.

    Attributes:
        ir_hash: The input's :attr:`~repro.ir.LoweredIR.structural_hash`.
        policy: The signature policy the run respected.
        canonical_hash: SHA-256 of the lexicographically minimal
            canonical rendering — invariant under automorphisms (equal
            hashes imply policy-isomorphic IRs).  Falls back to
            ``ir_hash`` when the search budget was exhausted.
        process_orbits: Interchangeability classes of pids, each sorted,
            ordered by smallest member (singletons included).
        channel_orbits: Same for cids.
        generators: Verified automorphism generators, each a
            ``(process perm, channel perm)`` pair.
        process_labeling: ``pid -> canonical position`` of the winning
            leaf (name-rank order under the fallback).
        channel_labeling: ``cid -> canonical position``.
        canonical_process_names: Input-frame process names in canonical
            order (orbit-representative ordering keys,
            :mod:`repro.ordering.exhaustive`).
        complete: Whether the search ran to completion.  ``False`` keeps
            the verified generators but disables canonical sharing.
        nodes: Search-tree nodes expanded (budget accounting).
    """

    ir_hash: str
    policy: SigPolicy
    canonical_hash: str
    process_orbits: tuple[tuple[int, ...], ...]
    channel_orbits: tuple[tuple[int, ...], ...]
    generators: tuple[PairPerm, ...]
    process_labeling: Perm
    channel_labeling: Perm
    canonical_process_names: tuple[str, ...]
    complete: bool
    nodes: int

    @property
    def trivial(self) -> bool:
        """True when no nontrivial automorphism was found."""
        return not self.generators

    def orbit_of_process(self, pid: int) -> tuple[int, ...]:
        for orbit in self.process_orbits:
            if pid in orbit:
                return orbit
        return (pid,)

    def orbit_of_channel(self, cid: int) -> tuple[int, ...]:
        for orbit in self.channel_orbits:
            if cid in orbit:
                return orbit
        return (cid,)

    @property
    def replicated_process_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Only the orbits with at least two members."""
        return tuple(o for o in self.process_orbits if len(o) > 1)

    @property
    def replicated_channel_orbits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(o for o in self.channel_orbits if len(o) > 1)


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------

_Sig = tuple[object, ...]


def _dense(sigs: Sequence[_Sig]) -> tuple[int, ...]:
    """Rank signatures by value order (canonical across isomorphic inputs)."""
    order = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}  # type: ignore[type-var]
    return tuple(order[sig] for sig in sigs)


class _Tables:
    """Immutable per-IR tables shared by every node of one search."""

    def __init__(self, ir: LoweredIR, policy: SigPolicy):
        self.ir = ir
        self.policy = policy
        self.put_pos, self.get_pos = _comm_positions(ir)
        self.ins, self.outs = _incidence(ir)


def _refine(
    tables: _Tables,
    pcolors: tuple[int, ...],
    ccolors: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Refine the joint coloring to fixpoint.

    Signatures include the previous color, so cells only ever split;
    the loop terminates in at most ``n_processes + n_channels`` rounds.
    """
    ir = tables.ir
    policy = tables.policy
    while True:
        csigs: list[_Sig] = []
        for cid in range(ir.n_channels):
            sig: list[object] = [
                ccolors[cid],
                pcolors[ir.producers[cid]],
                pcolors[ir.consumers[cid]],
            ]
            if policy.respect_channel_attrs:
                sig.extend(
                    (
                        ir.channel_latencies[cid],
                        ir.capacities[cid],
                        ir.initial_tokens[cid],
                        ir.buffered[cid],
                        ir.effective_capacities[cid],
                    )
                )
            if policy.respect_programs:
                sig.extend((tables.put_pos[cid], tables.get_pos[cid]))
            csigs.append(tuple(sig))
        new_c = _dense(csigs)

        psigs: list[_Sig] = []
        for pid in range(ir.n_processes):
            psig: list[object] = [pcolors[pid], ir.process_kinds[pid]]
            if policy.respect_programs:
                psig.append(
                    tuple(
                        (kind, new_c[arg]) if kind != OP_COMPUTE else (kind,)
                        for kind, arg in zip(
                            ir.op_kinds[pid], ir.op_args[pid]
                        )
                    )
                )
            else:
                psig.append(tuple(sorted(new_c[c] for c in tables.ins[pid])))
                psig.append(tuple(sorted(new_c[c] for c in tables.outs[pid])))
            psigs.append(tuple(psig))
        new_p = _dense(psigs)

        if new_p == pcolors and new_c == ccolors:
            return pcolors, ccolors
        pcolors, ccolors = new_p, new_c


def _leaf_render(
    tables: _Tables, lam_p: Perm, lam_c: Perm
) -> tuple[object, ...]:
    """The name-free canonical rendering of a discrete labeling.

    Two IRs are policy-isomorphic iff they admit labelings with equal
    renderings — the rendering lists every respected table in canonical
    id order with canonical ids substituted, so it *determines* the IR
    up to renaming.
    """
    ir = tables.ir
    policy = tables.policy
    inv_p = invert(lam_p)
    inv_c = invert(lam_c)
    procs: list[object] = []
    for pos in range(ir.n_processes):
        pid = inv_p[pos]
        if policy.respect_programs:
            procs.append(
                (
                    ir.process_kinds[pid],
                    tuple(
                        (kind, lam_c[arg]) if kind != OP_COMPUTE else (kind,)
                        for kind, arg in zip(
                            ir.op_kinds[pid], ir.op_args[pid]
                        )
                    ),
                )
            )
        else:
            procs.append(
                (
                    ir.process_kinds[pid],
                    tuple(sorted(lam_c[c] for c in tables.ins[pid])),
                    tuple(sorted(lam_c[c] for c in tables.outs[pid])),
                )
            )
    chans: list[object] = []
    for pos in range(ir.n_channels):
        cid = inv_c[pos]
        row: list[object] = [
            lam_p[ir.producers[cid]],
            lam_p[ir.consumers[cid]],
        ]
        if policy.respect_channel_attrs:
            row.extend(
                (
                    ir.channel_latencies[cid],
                    ir.capacities[cid],
                    ir.initial_tokens[cid],
                    ir.buffered[cid],
                    ir.effective_capacities[cid],
                )
            )
        if policy.respect_programs:
            row.extend((tables.put_pos[cid], tables.get_pos[cid]))
        chans.append(tuple(row))
    return (tuple(procs), tuple(chans))


def _hash_render(
    ir: LoweredIR, policy: SigPolicy, render: tuple[object, ...]
) -> str:
    # Deliberately name-free (no system name, no process/channel names):
    # the hash must agree across any renaming of an isomorphic design so
    # symmetric siblings share one cache identity.
    text = repr((_RENDER_VERSION, tuple(policy), render))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Individualization–refinement search
# ----------------------------------------------------------------------

#: Search-tree path entry: which vertex was individualized at a level.
_PathEntry = tuple[str, int]  # ("p" | "c", id)


class _Search:
    def __init__(self, tables: _Tables, node_budget: int):
        self.tables = tables
        self.budget = node_budget
        ir = tables.ir
        self.n_p = ir.n_processes
        self.n_c = ir.n_channels
        self.seen: dict[tuple[object, ...], tuple[Perm, Perm]] = {}
        self.best: tuple[tuple[object, ...], Perm, Perm] | None = None
        self.gens: list[PairPerm] = []
        self.pfind = UnionFind(self.n_p)
        self.cfind = UnionFind(self.n_c)
        self.nodes = 0
        self.exhausted = False

    # -- generator bookkeeping -----------------------------------------

    def _record_generator(self, gp: Perm, gc: Perm) -> bool:
        if not respects_policy(self.tables.ir, gp, gc, self.tables.policy):
            return False  # defensive: never trust an unverified derivation
        self.gens.append((gp, gc))
        for i, v in enumerate(gp):
            self.pfind.union(i, v)
        for i, v in enumerate(gc):
            self.cfind.union(i, v)
        return True

    def _stabilizer_orbits(
        self, path: list[_PathEntry], tag: str, size: int
    ) -> UnionFind:
        """Orbits under the generators fixing every path vertex pointwise."""
        uf = UnionFind(size)
        for gp, gc in self.gens:
            fixes = True
            for kind, v in path:
                image = gp[v] if kind == "p" else gc[v]
                if image != v:
                    fixes = False
                    break
            if not fixes:
                continue
            perm = gp if tag == "p" else gc
            for i, v in enumerate(perm):
                uf.union(i, v)
        return uf

    # -- the tree ------------------------------------------------------

    def descend(
        self,
        pcolors: tuple[int, ...],
        ccolors: tuple[int, ...],
        path: list[_PathEntry],
    ) -> int | None:
        """Explore one node; return a backjump depth or ``None``."""
        pcolors, ccolors = _refine(self.tables, pcolors, ccolors)
        self.nodes += 1
        if self.nodes > self.budget:
            self.exhausted = True
            return None

        if len(set(pcolors)) == self.n_p and len(set(ccolors)) == self.n_c:
            return self._leaf(pcolors, ccolors, path)

        tag, members = self._target_cell(pcolors, ccolors)
        size = self.n_p if tag == "p" else self.n_c
        done: list[int] = []
        for vertex in members:
            if self.exhausted:
                return None
            if done:
                orbits = self._stabilizer_orbits(path, tag, size)
                root = orbits.find(vertex)
                if any(orbits.find(u) == root for u in done):
                    continue  # symmetric to an explored sibling
            if tag == "p":
                child_p = tuple(
                    self.n_p if i == vertex else color
                    for i, color in enumerate(pcolors)
                )
                child_c = ccolors
            else:
                child_p = pcolors
                child_c = tuple(
                    self.n_c if i == vertex else color
                    for i, color in enumerate(ccolors)
                )
            path.append((tag, vertex))
            jump = self.descend(child_p, child_c, path)
            path.pop()
            done.append(vertex)
            if jump is not None:
                if jump < len(path):
                    return jump  # an ancestor is the backjump target
                # jump == len(path): this node is the target — keep going
        return None

    def _target_cell(
        self, pcolors: tuple[int, ...], ccolors: tuple[int, ...]
    ) -> tuple[str, list[int]]:
        """The first non-singleton cell (processes first, then channels).

        Channel cells can stay ambiguous only under relaxed policies
        (the exact policy's position signatures discretize channels as
        soon as processes are discrete).
        """
        for colors, tag, n in ((pcolors, "p", self.n_p), (ccolors, "c", self.n_c)):
            counts: dict[int, int] = {}
            for color in colors:
                counts[color] = counts.get(color, 0) + 1
            ambiguous = sorted(c for c, k in counts.items() if k > 1)
            if ambiguous:
                target = ambiguous[0]
                return tag, [i for i in range(n) if colors[i] == target]
        raise AssertionError("no non-singleton cell in a non-discrete node")

    def _leaf(
        self,
        pcolors: tuple[int, ...],
        ccolors: tuple[int, ...],
        path: list[_PathEntry],
    ) -> int | None:
        render = _leaf_render(self.tables, pcolors, ccolors)
        prev = self.seen.get(render)
        if prev is None:
            self.seen[render] = (pcolors, ccolors)
            if self.best is None or render < self.best[0]:  # type: ignore[operator]
                self.best = (render, pcolors, ccolors)
            return None
        # Equal renderings at two leaves: the labelings differ by an
        # automorphism g = prev_lam^{-1} . lam, mapping each vertex to
        # the one playing its canonical role in the earlier leaf.
        prev_p, prev_c = prev
        inv_prev_p = invert(prev_p)
        inv_prev_c = invert(prev_c)
        gp = tuple(inv_prev_p[pcolors[i]] for i in range(self.n_p))
        gc = tuple(inv_prev_c[ccolors[i]] for i in range(self.n_c))
        if not self._record_generator(gp, gc):
            return None
        # Backjump: levels whose individualized vertex g fixes cannot
        # yield new leaves from this sibling — resume where g first acts.
        depth = 0
        for kind, v in path:
            image = gp[v] if kind == "p" else gc[v]
            if image != v:
                break
            depth += 1
        return depth if depth < len(path) else None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

#: Absolute bounds on the adaptive search budget.
_MIN_NODE_BUDGET = 64
_MAX_NODE_BUDGET = 4096
#: Work target the adaptive budget divides by the IR size: refinement
#: costs O(n log n) per node, so nodes * n stays roughly constant.
_NODE_WORK_TARGET = 120_000

_memo = memo("sym", maxsize=256)


def default_node_budget(ir: LoweredIR) -> int:
    """The adaptive search budget: generous on small IRs, bounded on SoCs."""
    n = max(1, ir.n_processes + ir.n_channels)
    return max(_MIN_NODE_BUDGET, min(_MAX_NODE_BUDGET, _NODE_WORK_TARGET // n))


def analyze_symmetry(
    ir: LoweredIR,
    policy: SigPolicy = EXACT,
    node_budget: int | None = None,
    seeds: Sequence[PairPerm] = (),
) -> SymmetryAnalysis:
    """Compute orbits, generators, and the canonical hash of ``ir``.

    ``seeds`` are *candidate* automorphism generators known ahead of the
    search — typically derived from the system's declared replication
    families (:func:`repro.sym.declared.declared_seeds`).  Each seed is
    re-verified against the IR tables before it is trusted (a drifted or
    false declaration is silently dropped), then fed to the search's
    orbit pruning, so correct seeds turn the leaf-pair *rediscovery* of
    known symmetry into an upfront declaration.  Seeding never changes
    ``canonical_hash`` — orbit pruning only skips subtrees whose leaves
    are automorphic images of explored ones — it only changes how much
    of the tree must be walked and which generators survive a budget
    exhaustion.

    Memoized process-wide on the IR's content *and declaration order*
    (labelings are declaration-order-sensitive even though the
    structural hash is not), the policy, the budget, and the seeds.
    """
    if node_budget is None:
        node_budget = default_node_budget(ir)
    key: tuple[object, ...] = (
        ir.structural_hash,
        ir.processes,
        ir.channels,
        tuple(policy),
        node_budget,
        tuple(seeds),
    )
    hit = _memo.get(key)
    if hit is not MISS:
        return cast(SymmetryAnalysis, hit)
    analysis = _analyze_uncached(ir, policy, node_budget, seeds)
    _memo.put(key, analysis)
    return analysis


def clear_memo() -> None:
    """Drop the process-wide memo (tests, cold-cost benchmarks)."""
    _memo.clear()


def canonical_hash_of(ir: LoweredIR) -> str:
    """The orbit-invariant content address of ``ir`` (exact policy)."""
    return analyze_symmetry(ir).canonical_hash


def _fallback_labelings(ir: LoweredIR) -> tuple[Perm, Perm]:
    """Name-rank labelings for budget-exhausted runs.

    Sorted-name order is a function of the *name-sorted* structural
    rendering, so any two IRs sharing a ``structural_hash`` agree on it
    — which keeps the canonical name tables consistent even though no
    canonical labeling was established.
    """
    p_rank = {name: i for i, name in enumerate(sorted(ir.processes))}
    c_rank = {name: i for i, name in enumerate(sorted(ir.channels))}
    return (
        tuple(p_rank[name] for name in ir.processes),
        tuple(c_rank[name] for name in ir.channels),
    )


def _analyze_uncached(
    ir: LoweredIR,
    policy: SigPolicy,
    node_budget: int,
    seeds: Sequence[PairPerm] = (),
) -> SymmetryAnalysis:
    tables = _Tables(ir, policy)
    search = _Search(tables, node_budget)
    for gp, gc in seeds:
        # _record_generator re-verifies via respects_policy, so a stale
        # or false seed is dropped instead of poisoning the orbits.
        search._record_generator(gp, gc)
    if ir.n_processes > 0:
        search.descend(
            (0,) * ir.n_processes, (0,) * ir.n_channels, []
        )
    complete = not search.exhausted
    if complete and search.best is not None:
        render, lam_p, lam_c = search.best
        canonical_hash = _hash_render(ir, policy, render)
    else:
        lam_p, lam_c = _fallback_labelings(ir)
        canonical_hash = ir.structural_hash
    inv_p = invert(lam_p) if lam_p else ()
    return SymmetryAnalysis(
        ir_hash=ir.structural_hash,
        policy=policy,
        canonical_hash=canonical_hash,
        process_orbits=search.pfind.orbits() if ir.n_processes else (),
        channel_orbits=search.cfind.orbits() if ir.n_channels else (),
        generators=tuple(search.gens),
        process_labeling=lam_p,
        channel_labeling=lam_c,
        canonical_process_names=tuple(
            ir.processes[pid] for pid in inv_p
        ),
        complete=complete,
        nodes=search.nodes,
    )
