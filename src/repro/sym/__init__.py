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

from repro.sym.canonical import (
    ATTR_RELAXED,
    EXACT,
    ORDER_RELAXED,
    TOPOLOGY_RELAXED,
    SigPolicy,
    SymmetryAnalysis,
    analyze_symmetry,
    canonical_hash_of,
    clear_memo,
    default_node_budget,
    is_automorphism,
    respects_policy,
)
from repro.sym.declared import (
    VerifiedFamily,
    declared_seeds,
    family_perms,
    verify_families,
)
from repro.sym.perm import (
    PairPerm,
    Perm,
    closure,
    compose,
    compose_pair,
    identity,
    identity_pair,
    invert,
    invert_pair,
    is_identity,
    is_identity_pair,
)
from repro.sym.states import (
    ENUMERATION_LIMIT,
    StateSymmetry,
    state_symmetry,
)

__all__ = [
    "ATTR_RELAXED",
    "EXACT",
    "ORDER_RELAXED",
    "ENUMERATION_LIMIT",
    "PairPerm",
    "Perm",
    "SigPolicy",
    "StateSymmetry",
    "SymmetryAnalysis",
    "TOPOLOGY_RELAXED",
    "VerifiedFamily",
    "analyze_symmetry",
    "canonical_hash_of",
    "clear_memo",
    "closure",
    "compose",
    "compose_pair",
    "declared_seeds",
    "default_node_budget",
    "family_perms",
    "identity",
    "identity_pair",
    "invert",
    "invert_pair",
    "is_automorphism",
    "is_identity",
    "is_identity_pair",
    "respects_policy",
    "state_symmetry",
    "verify_families",
]
