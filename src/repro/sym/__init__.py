"""Structural symmetry analysis over the lowered IR.

The compositional methodology produces SoCs full of replicated
structure — identical worker stages behind the same latency-insensitive
interface.  This package computes the automorphism group of a
:class:`~repro.ir.LoweredIR` by partition-refinement canonical labeling
(:mod:`repro.sym.canonical`), and everything downstream spends the
result:

* **orbits** — which processes/channels are interchangeable (the ERM7xx
  lint rules, the ``ermes ir`` orbit section);
* **canonical_hash** — a structural hash invariant under automorphisms
  *and* declaration renaming, the key the explorer dedups ordering
  verifications on (symmetric candidates are checked once);
* **state canonicalization** (:mod:`repro.sym.states`) — the
  quotient-space verifier maps every BFS state to an orbit
  representative, composing with stubborn-set reduction.
"""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.sym.canonical import (
        EXACT as EXACT,
        ORDER_RELAXED as ORDER_RELAXED,
        TOPOLOGY_RELAXED as TOPOLOGY_RELAXED,
        SigPolicy as SigPolicy,
        SymmetryAnalysis as SymmetryAnalysis,
        analyze_symmetry as analyze_symmetry,
    )
    from repro.sym.declared import (
        VerifiedFamily as VerifiedFamily,
        declared_seeds as declared_seeds,
        verify_families as verify_families,
    )
    from repro.sym.perm import PairPerm as PairPerm, closure as closure
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".canonical": (
            "EXACT", "ORDER_RELAXED", "TOPOLOGY_RELAXED", "SigPolicy",
            "SymmetryAnalysis", "analyze_symmetry",
        ),
        ".declared": ("VerifiedFamily", "declared_seeds", "verify_families"),
        ".perm": ("PairPerm", "closure"),
    })
