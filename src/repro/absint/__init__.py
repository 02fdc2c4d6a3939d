"""``repro.absint`` — static analysis over the lowered IR.

A reachability closure over the communication slots of a
:class:`~repro.ir.LoweredIR`, which yields per-channel occupancy bounds,
dead channels and unreachable statements (:mod:`repro.absint.engine`);
a token-conservation/cycle-invariant pass (:mod:`repro.absint.invariants`);
and a siphon-style emptiness check issuing machine-checkable
deadlock-freedom certificates (:mod:`repro.absint.certificate`).  The
invariants and certificates read the integer place rows of the model's
marked graph (:func:`repro.model.build._marked_rows`).  Soundness is the
contract: every published bound over-approximates anything any
simulation trace ever exhibits, and a certificate is accepted only after
independent re-validation against the IR it names.

Consumers: the ERM6xx lint rules (:mod:`repro.lint.rules.absint`), the
Explorer's static preflight (:mod:`repro.dse.explorer`), and the
``ermes analyze`` subcommand.
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
from repro.absint.engine import (
    AbsIntResult,
    OccupancyBound,
    UnreachableOp,
    analyze,
    analyze_ir,
    clear_analysis_cache,
)
from repro.absint.invariants import TokenInvariant
from repro.absint.report import format_result, result_to_dict

__all__ = [
    "CERTIFICATE_VERSION",
    "METHOD_SIPHON_RANKING",
    "AbsIntResult",
    "CertificateError",
    "DeadlockFreedomCertificate",
    "OccupancyBound",
    "TokenInvariant",
    "UnreachableOp",
    "analyze",
    "analyze_ir",
    "check_certificate",
    "clear_analysis_cache",
    "find_token_free_cycle",
    "format_result",
    "issue_certificate",
    "result_to_dict",
]
