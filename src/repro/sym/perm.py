"""Dense integer permutations, the currency of the symmetry analysis.

A permutation over ``n`` elements is a ``tuple[int, ...]`` of length
``n`` mapping ``i -> perm[i]``.  Everything in :mod:`repro.sym` moves
process ids and channel ids around with these; keeping them as plain
tuples makes group elements hashable (closure sets, memo keys).
"""

from __future__ import annotations

from typing import Iterable

#: A permutation of ``range(len(perm))``: ``i -> perm[i]``.
Perm = tuple[int, ...]

#: An automorphism of a :class:`~repro.ir.LoweredIR`: one permutation
#: over process ids and one over channel ids, acting together.
PairPerm = tuple[Perm, Perm]


def identity(n: int) -> Perm:
    """The identity permutation over ``n`` elements."""
    return tuple(range(n))


def is_identity(perm: Perm) -> bool:
    return all(i == v for i, v in enumerate(perm))


def invert(perm: Perm) -> Perm:
    """The inverse permutation: ``invert(p)[p[i]] == i``."""
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def compose(p: Perm, q: Perm) -> Perm:
    """``(p o q)(i) = p[q[i]]`` — apply ``q`` first, then ``p``."""
    return tuple(p[v] for v in q)


def compose_pair(g: PairPerm, h: PairPerm) -> PairPerm:
    """Compose two IR automorphisms (``h`` first, then ``g``)."""
    return (compose(g[0], h[0]), compose(g[1], h[1]))


def invert_pair(g: PairPerm) -> PairPerm:
    return (invert(g[0]), invert(g[1]))


def identity_pair(n_processes: int, n_channels: int) -> PairPerm:
    return (identity(n_processes), identity(n_channels))


def is_identity_pair(g: PairPerm) -> bool:
    return is_identity(g[0]) and is_identity(g[1])


def closure(
    generators: Iterable[PairPerm],
    n_processes: int,
    n_channels: int,
    limit: int,
) -> tuple[PairPerm, ...] | None:
    """The group generated by ``generators``, or ``None`` above ``limit``.

    Plain BFS multiplication from the identity; the result is sorted so
    closure order never depends on generator order.  ``None`` signals
    the caller to fall back to a generator-only (partial) strategy.
    """
    gens = [g for g in generators if not is_identity_pair(g)]
    seen: set[PairPerm] = {identity_pair(n_processes, n_channels)}
    frontier: list[PairPerm] = list(seen)
    while frontier:
        nxt: list[PairPerm] = []
        for element in frontier:
            for gen in gens:
                product = compose_pair(gen, element)
                if product not in seen:
                    seen.add(product)
                    if len(seen) > limit:
                        return None
                    nxt.append(product)
        frontier = nxt
    return tuple(sorted(seen))


class UnionFind:
    """Tiny union-find over ``range(n)`` for orbit accumulation."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Non-trivial-and-trivial classes, each sorted, ordered by their
        smallest member."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            groups.setdefault(self.find(i), []).append(i)
        return tuple(
            tuple(sorted(members))
            for _, members in sorted(groups.items())
        )
