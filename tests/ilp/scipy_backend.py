"""Optional SciPy MILP backend (`scipy.optimize.milp`, HiGHS).

A third independent solver for :class:`~repro.ilp.model.MultiChoiceProblem`
instances, used as a test oracle to cross-check the built-in
branch-and-bound the way the paper cross-checks against GLPK.
Import-guarded: the tests that need it skip without SciPy.

No-good cuts are encoded as cover constraints: for a forbidden full
assignment ``S``, ``sum_{(g,c) in S} x_{g,c} <= |groups| - 1``.
"""

from __future__ import annotations

from repro.errors import InfeasibleError, ReproError
from repro.ilp.model import MultiChoiceProblem, Sense, Solution


def available() -> bool:
    """True when SciPy's MILP solver can be imported."""
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return False
    return True


def solve(problem: MultiChoiceProblem) -> Solution:
    """Solve with `scipy.optimize.milp`.

    Raises:
        ReproError: SciPy is unavailable.
        InfeasibleError: The model is infeasible.
    """
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as error:
        raise ReproError("scipy backend requested but scipy is missing") from error

    # Flatten variables: one binary per (group, choice).
    index: dict[tuple[str, str], int] = {}
    for group in problem.groups:
        for choice in group.choices:
            index[(group.name, choice.name)] = len(index)
    n = len(index)
    sign = -1.0 if problem.maximize else 1.0  # milp minimizes

    objective = np.zeros(n)
    for group in problem.groups:
        for choice in group.choices:
            objective[index[(group.name, choice.name)]] = sign * choice.objective

    rows = []
    lows = []
    highs = []

    # Exactly-one rows.
    for group in problem.groups:
        row = np.zeros(n)
        for choice in group.choices:
            row[index[(group.name, choice.name)]] = 1.0
        rows.append(row)
        lows.append(1.0)
        highs.append(1.0)

    # Side constraints.
    for constraint in problem.constraints:
        row = np.zeros(n)
        for group in problem.groups:
            for choice in group.choices:
                row[index[(group.name, choice.name)]] = choice.use(constraint.name)
        rows.append(row)
        if constraint.sense is Sense.LE:
            lows.append(-np.inf)
            highs.append(constraint.rhs)
        elif constraint.sense is Sense.GE:
            lows.append(constraint.rhs)
            highs.append(np.inf)
        else:
            lows.append(constraint.rhs)
            highs.append(constraint.rhs)

    # No-good cuts.
    for cut in problem.forbidden:
        row = np.zeros(n)
        for group_name, choice_name in cut.items():
            row[index[(group_name, choice_name)]] = 1.0
        rows.append(row)
        lows.append(-np.inf)
        highs.append(len(problem.groups) - 1.0)

    result = milp(
        c=objective,
        constraints=LinearConstraint(np.vstack(rows), lows, highs),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise InfeasibleError(f"scipy.milp failed: {result.message}")

    selection: dict[str, str] = {}
    for (group_name, choice_name), i in index.items():
        if result.x[i] > 0.5:
            selection[group_name] = choice_name
    objective_value = problem.evaluate(selection)
    return Solution(selection=selection, objective=objective_value)
