"""``repro.absint`` — abstract interpretation over the lowered IR.

A fixpoint dataflow engine whose program points are the communication
slots of a :class:`~repro.ir.LoweredIR` and whose domain is per-channel
occupancy intervals joined over all interleavings
(:mod:`repro.absint.engine`), a token-conservation/cycle-invariant pass
(:mod:`repro.absint.invariants`), and a siphon-style emptiness check
issuing machine-checkable deadlock-freedom certificates
(:mod:`repro.absint.certificate`).  Soundness is the contract: every
published bound over-approximates anything any simulation trace ever
exhibits, and a certificate is accepted only after independent
re-validation against the IR it names.

Consumers: the ERM6xx lint rules (:mod:`repro.lint.rules.absint`), the
explicit-state verifier's certificate fast path
(:mod:`repro.verify.checker`), the Explorer's static preflight
(:mod:`repro.dse.explorer`), and the ``ermes analyze`` subcommand.
"""

from repro.absint.certificate import (
    CERTIFICATE_VERSION,
    METHOD_SIPHON_RANKING,
    CertificateError,
    DeadlockFreedomCertificate,
    check_certificate,
    find_token_free_cycle,
    issue_certificate,
)
from repro.absint.domain import Interval
from repro.absint.engine import (
    WIDENING_BUMPS,
    AbsIntResult,
    OccupancyBound,
    UnreachableOp,
    analysis_cache_info,
    analyze,
    analyze_ir,
    clear_analysis_cache,
)
from repro.absint.invariants import (
    TokenInvariant,
    min_cycle_occupancy_bounds,
    token_invariants,
)
from repro.absint.report import format_result, result_to_dict
from repro.model.build import MarkedPlace, marked_places

__all__ = [
    "CERTIFICATE_VERSION",
    "METHOD_SIPHON_RANKING",
    "WIDENING_BUMPS",
    "AbsIntResult",
    "CertificateError",
    "DeadlockFreedomCertificate",
    "Interval",
    "MarkedPlace",
    "OccupancyBound",
    "TokenInvariant",
    "UnreachableOp",
    "analysis_cache_info",
    "analyze",
    "analyze_ir",
    "check_certificate",
    "clear_analysis_cache",
    "find_token_free_cycle",
    "format_result",
    "issue_certificate",
    "marked_places",
    "min_cycle_occupancy_bounds",
    "result_to_dict",
    "token_invariants",
]
