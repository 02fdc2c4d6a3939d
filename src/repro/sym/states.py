"""Orbit canonicalization of verification states.

The quotient-space checker (:func:`repro.verify.check_deadlock` with
``sym=True``) replaces every BFS state with a canonical representative
of its orbit under the IR's automorphism group before the visited-set
lookup.  Correctness needs two things from the canonicalizer:

* **soundness** — the representative must be the image of the state
  under a *verified automorphism* (never a merely plausible one), and
  the permutation used is returned so witnesses can be pulled back to
  the concrete frame;
* **determinism** — ``canonicalize`` is a pure function of the state,
  so two states in the same orbit that reach the same representative do
  so stably across runs.

Minimality (two states in the same orbit always mapping to the *same*
representative) is what buys reduction; it is exact here for the two
structured strategies and best-effort for the fallback:

1. **Block ``S_m``** — when a symmetry sector decomposes into ``m >= 2``
   interchangeable blocks (replicated lanes) and the ``m - 1`` adjacent
   block transpositions each re-verify as IR automorphisms, the whole
   symmetric group on blocks is available: the representative sorts the
   per-block state vectors.  Exact, and O(n log n) per state even for
   ``|S_8| = 40320``.
2. **Closure enumeration** — otherwise, if the sector's generated group
   has at most :data:`ENUMERATION_LIMIT` elements (rings and other
   small cyclic/dihedral sectors), the representative is the exact
   lexicographic minimum over the full group.  Plain per-block sorting
   would be *unsound* here — a cyclic group cannot realize arbitrary
   block permutations, and pretending it can over-merges states and can
   hide reachable deadlocks.
3. **Greedy descent** — for large unstructured groups, repeatedly apply
   any generator (or inverse) that lexicographically decreases the
   state, to a fixpoint.  A sound partial canonicalization: states only
   ever merge with true orbit-mates, merely not always maximally.

Sectors (connected components of generators sharing support) act on
disjoint state slots, so they canonicalize independently and their
permutations compose.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sym.canonical import (
    EXACT,
    SymmetryAnalysis,
    analyze_symmetry,
    is_automorphism,
)
from repro.sym.perm import (
    PairPerm,
    UnionFind,
    compose_pair,
    identity_pair,
    invert_pair,
    is_identity_pair,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.semantics import Action, State, TransitionSystem

#: Largest sector group the enumeration strategy materializes.
ENUMERATION_LIMIT = 2048

#: A support element: a moved process ("p", pid) or channel ("c", cid).
_Elem = tuple[str, int]


def _support(g: PairPerm) -> frozenset[_Elem]:
    gp, gc = g
    moved: set[_Elem] = {("p", i) for i, v in enumerate(gp) if v != i}
    moved.update(("c", i) for i, v in enumerate(gc) if v != i)
    return frozenset(moved)


def _apply_elem(g: PairPerm, elem: _Elem) -> _Elem:
    tag, i = elem
    return (tag, g[0][i] if tag == "p" else g[1][i])


class _BlockStrategy:
    """Verified ``S_m`` over interchangeable blocks: sort block vectors."""

    def __init__(
        self,
        blocks: list[tuple[_Elem, ...]],
        maps: list[PairPerm],
        n_p: int,
        n_c: int,
    ):
        self.base = blocks[0]
        self.blocks = blocks
        self.maps = maps  # maps[j] carries blocks[0] onto blocks[j]
        self.n_p = n_p
        self.n_c = n_c
        #: Per block, its elements in base-aligned order.
        self.aligned: list[tuple[_Elem, ...]] = [
            tuple(_apply_elem(maps[j], e) for e in self.base)
            for j in range(len(blocks))
        ]

    def sigma_for(self, order: tuple[int, ...]) -> PairPerm:
        """The automorphism sending block ``order[k]`` onto block ``k``."""
        gp = list(range(self.n_p))
        gc = list(range(self.n_c))
        for k, j in enumerate(order):
            for src, dst in zip(self.aligned[j], self.aligned[k]):
                tag, i = src
                _, target = dst
                if tag == "p":
                    gp[i] = target
                else:
                    gc[i] = target
        return (tuple(gp), tuple(gc))


class _EnumStrategy:
    """Exact lexicographic minimum over a fully enumerated sector group."""

    def __init__(self, elements: tuple[PairPerm, ...]):
        self.elements = elements


class _GreedyStrategy:
    """Sound partial canonicalization by generator descent."""

    def __init__(self, gens: list[PairPerm]):
        moves: list[PairPerm] = []
        for g in gens:
            moves.append(g)
            gi = invert_pair(g)
            if gi != g:
                moves.append(gi)
        self.moves = moves


class StateSymmetry:
    """Canonicalize :class:`~repro.verify.semantics.TransitionSystem`
    states to orbit representatives.

    Args:
        ts: The transition system whose states are canonicalized.
        analysis: A precomputed exact-policy :class:`SymmetryAnalysis`
            of ``ts.ir`` (computed on demand otherwise).
    """

    def __init__(
        self,
        ts: "TransitionSystem",
        analysis: SymmetryAnalysis | None = None,
    ):
        self.ts = ts
        ir = ts.ir
        if analysis is None:
            analysis = analyze_symmetry(ir)
        if analysis.policy != EXACT:
            raise ValueError(
                "state canonicalization requires the exact signature policy"
            )
        self.analysis = analysis
        self.n_p = ir.n_processes
        self.n_c = ir.n_channels
        self._identity = identity_pair(self.n_p, self.n_c)
        #: State-slot <-> id translation (states index only communicating
        #: processes and buffered channels).
        self.pid_of_pslot: tuple[int, ...] = ts.pids
        self.pslot_of_pid: dict[int, int] = {
            pid: slot for slot, pid in enumerate(self.pid_of_pslot)
        }
        self.cid_of_bslot: tuple[int, ...] = ts.buffered_cids
        self.bslot_of_cid: dict[int, int] = {
            cid: slot for slot, cid in enumerate(self.cid_of_bslot)
        }
        self._sigma_cache: dict[tuple[int, tuple[int, ...]], PairPerm | None] = {}
        self.strategies: list[object] = []
        if not analysis.trivial:
            self._build_strategies(list(analysis.generators))

    @property
    def trivial(self) -> bool:
        """True when canonicalization is the identity."""
        return not self.strategies

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_strategies(self, gens: list[PairPerm]) -> None:
        supports = [_support(g) for g in gens]
        uf = UnionFind(len(gens))
        elem_owner: dict[_Elem, int] = {}
        for i, support in enumerate(supports):
            for elem in support:
                if elem in elem_owner:
                    uf.union(i, elem_owner[elem])
                else:
                    elem_owner[elem] = i
        sectors: dict[int, list[int]] = {}
        for i in range(len(gens)):
            sectors.setdefault(uf.find(i), []).append(i)
        for members in sectors.values():
            sector_gens = [gens[i] for i in members]
            support: set[_Elem] = set()
            for i in members:
                support.update(supports[i])
            self.strategies.append(
                self._sector_strategy(sector_gens, frozenset(support))
            )

    def _sector_strategy(
        self, gens: list[PairPerm], support: frozenset[_Elem]
    ) -> object:
        blocks = self._blocks(support)
        if len(blocks) >= 2:
            strategy = self._try_block_s_m(gens, blocks)
            if strategy is not None:
                return strategy
        from repro.sym.perm import closure

        elements = closure(gens, self.n_p, self.n_c, ENUMERATION_LIMIT)
        if elements is not None:
            return _EnumStrategy(elements)
        return _GreedyStrategy(gens)

    def _blocks(self, support: frozenset[_Elem]) -> list[tuple[_Elem, ...]]:
        """Connected components of the in-support incidence graph."""
        ir = self.ts.ir
        uf_ids = {elem: i for i, elem in enumerate(sorted(support))}
        uf = UnionFind(len(uf_ids))
        for elem, i in uf_ids.items():
            tag, cid = elem
            if tag != "c":
                continue
            for endpoint in (ir.producers[cid], ir.consumers[cid]):
                other = ("p", endpoint)
                if other in uf_ids:
                    uf.union(i, uf_ids[other])
        groups: dict[int, list[_Elem]] = {}
        for elem, i in uf_ids.items():
            groups.setdefault(uf.find(i), []).append(elem)
        blocks = [tuple(sorted(members)) for members in groups.values()]
        blocks.sort()
        return blocks

    def _try_block_s_m(
        self, gens: list[PairPerm], blocks: list[tuple[_Elem, ...]]
    ) -> _BlockStrategy | None:
        """Verify the full symmetric group over ``blocks`` is available.

        BFS from block 0 composes generator images into one carrier map
        per block; the candidate adjacent transpositions they induce are
        then each re-verified against the IR — ``m - 1`` checks certify
        all ``m!`` block permutations.
        """
        ir = self.ts.ir
        index_of = {block: j for j, block in enumerate(blocks)}
        maps: list[PairPerm | None] = [None] * len(blocks)
        maps[0] = self._identity
        frontier = [0]
        while frontier:
            j = frontier.pop()
            carrier = maps[j]
            assert carrier is not None
            for g in gens:
                image = tuple(
                    sorted(_apply_elem(g, e) for e in blocks[j])
                )
                k = index_of.get(image)
                if k is None:
                    return None  # a generator tears a block apart
                if maps[k] is None:
                    maps[k] = compose_pair(g, carrier)
                    frontier.append(k)
        if any(m is None for m in maps):
            return None  # blocks not all interchangeable
        carriers = [m for m in maps if m is not None]
        strategy = _BlockStrategy(blocks, carriers, self.n_p, self.n_c)
        for j in range(len(blocks) - 1):
            order = list(range(len(blocks)))
            order[j], order[j + 1] = order[j + 1], order[j]
            tau = strategy.sigma_for(tuple(order))
            if not is_automorphism(ir, tau[0], tau[1]):
                return None
        return strategy

    # ------------------------------------------------------------------
    # State action
    # ------------------------------------------------------------------

    def apply(self, g: PairPerm, state: "State") -> "State":
        """The image of ``state`` under the automorphism ``g``."""
        gp, gc = g
        indices, occupancies = state
        new_indices = [0] * len(indices)
        for slot, value in enumerate(indices):
            new_indices[self.pslot_of_pid[gp[self.pid_of_pslot[slot]]]] = value
        new_occ = [0] * len(occupancies)
        for slot, value in enumerate(occupancies):
            new_occ[self.bslot_of_cid[gc[self.cid_of_bslot[slot]]]] = value
        return (tuple(new_indices), tuple(new_occ))

    def map_action(self, g: PairPerm, action: "Action") -> "Action":
        """The action corresponding to ``action`` in the ``g``-image frame."""
        ir = self.ts.ir
        return action._replace(
            channel=ir.channels[g[1][ir.cid(action.channel)]]
        )

    def canonicalize(self, state: "State") -> "tuple[State, PairPerm]":
        """``(representative, sigma)`` with ``representative == sigma(state)``.

        ``sigma`` is always a verified automorphism (possibly the
        identity), so the representative is genuinely reachable iff the
        state is, and schedules found at representatives pull back
        through ``sigma`` inverses to concrete schedules.
        """
        if not self.strategies:
            return state, self._identity
        sigma = self._identity
        for strategy in self.strategies:
            state, sector_sigma = self._canonicalize_sector(strategy, state)
            if not is_identity_pair(sector_sigma):
                sigma = compose_pair(sector_sigma, sigma)
        return state, sigma

    def _canonicalize_sector(
        self, strategy: object, state: "State"
    ) -> "tuple[State, PairPerm]":
        if isinstance(strategy, _BlockStrategy):
            return self._canonicalize_blocks(strategy, state)
        if isinstance(strategy, _EnumStrategy):
            best = state
            best_sigma = self._identity
            for g in strategy.elements:
                image = self.apply(g, state)
                if image < best:
                    best, best_sigma = image, g
            return best, best_sigma
        assert isinstance(strategy, _GreedyStrategy)
        sigma = self._identity
        improved = True
        while improved:
            improved = False
            for g in strategy.moves:
                image = self.apply(g, state)
                if image < state:
                    state = image
                    sigma = compose_pair(g, sigma)
                    improved = True
        return state, sigma

    def _block_vector(
        self, strategy: _BlockStrategy, j: int, state: "State"
    ) -> tuple[int, ...]:
        indices, occupancies = state
        vector: list[int] = []
        for tag, i in strategy.aligned[j]:
            if tag == "p":
                slot = self.pslot_of_pid.get(i)
                if slot is not None:
                    vector.append(indices[slot])
            else:
                slot = self.bslot_of_cid.get(i)
                if slot is not None:
                    vector.append(occupancies[slot])
        return tuple(vector)

    def _canonicalize_blocks(
        self, strategy: _BlockStrategy, state: "State"
    ) -> "tuple[State, PairPerm]":
        m = len(strategy.blocks)
        keys = sorted(
            range(m), key=lambda j: (self._block_vector(strategy, j, state), j)
        )
        order = tuple(keys)
        if order == tuple(range(m)):
            return state, self._identity
        cache_key = (id(strategy), order)
        if cache_key not in self._sigma_cache:
            candidate = strategy.sigma_for(order)
            self._sigma_cache[cache_key] = (
                candidate
                if is_automorphism(self.ts.ir, candidate[0], candidate[1])
                else None  # defensive: refuse unverified moves
            )
        sigma = self._sigma_cache[cache_key]
        if sigma is None:
            return state, self._identity
        return self.apply(sigma, state), sigma


def state_symmetry(
    ts: "TransitionSystem", analysis: SymmetryAnalysis | None = None
) -> StateSymmetry:
    """Convenience constructor mirroring :class:`StateSymmetry`."""
    return StateSymmetry(ts, analysis)


def inverse_schedule_action(
    sym: StateSymmetry, sigma: PairPerm, action: "Action"
) -> "Action":
    """Map a representative-frame action back through ``sigma``."""
    return sym.map_action(invert_pair(sigma), action)


__all__ = [
    "ENUMERATION_LIMIT",
    "StateSymmetry",
    "state_symmetry",
    "inverse_schedule_action",
]
