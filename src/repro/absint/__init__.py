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

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.absint.certificate import (
        CertificateError as CertificateError,
        check_certificate as check_certificate,
    )
    from repro.absint.engine import (
        AbsIntResult as AbsIntResult,
        analyze as analyze,
        analyze_ir as analyze_ir,
        clear_analysis_cache as clear_analysis_cache,
    )
    from repro.absint.report import (
        format_result as format_result,
        result_to_dict as result_to_dict,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".certificate": ("CertificateError", "check_certificate"),
        ".engine": ("AbsIntResult", "analyze", "analyze_ir", "clear_analysis_cache"),
        ".report": ("format_result", "result_to_dict"),
    })
