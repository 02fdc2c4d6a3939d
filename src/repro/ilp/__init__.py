"""0-1 ILP substrate (GLPK substitute): multiple-choice models and the
exact branch-and-bound solver (:func:`repro.ilp.branch_bound.solve`)."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.ilp import branch_bound as branch_bound
    from repro.ilp.model import (
        Choice as Choice,
        MultiChoiceProblem as MultiChoiceProblem,
        Solution as Solution,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".branch_bound": ("branch_bound",),
        ".model": ("Choice", "MultiChoiceProblem", "Solution"),
    })
