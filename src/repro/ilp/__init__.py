"""0-1 ILP substrate (GLPK substitute): multiple-choice models and the
exact branch-and-bound solver (:func:`repro.ilp.branch_bound.solve`)."""

from repro.ilp import branch_bound
from repro.ilp.model import Choice, MultiChoiceProblem, Solution

__all__ = [
    "Choice",
    "MultiChoiceProblem",
    "Solution",
    "branch_bound",
]
