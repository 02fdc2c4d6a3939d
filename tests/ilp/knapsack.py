"""Dynamic-programming solver for the multiple-choice knapsack shape.

The paper notes that area recovery "is a variant of the knapsack problem":
maximize total area gain subject to a budget on total latency loss.  When a
:class:`~repro.ilp.model.MultiChoiceProblem` has exactly one ``<=``
constraint with integer, non-negative consumptions, classic multiple-choice
knapsack DP solves it in ``O(groups × budget × choices)`` — an independent
exact test oracle for the branch-and-bound solver.
"""

from __future__ import annotations

from repro.errors import InfeasibleError, ValidationError
from repro.ilp.model import MultiChoiceProblem, Sense, Solution

_NEG_INF = float("-inf")


def applicable(problem: MultiChoiceProblem) -> bool:
    """True when the DP can solve this problem exactly."""
    if len(problem.constraints) != 1 or problem.forbidden:
        return False
    constraint = problem.constraints[0]
    if constraint.sense is not Sense.LE:
        return False
    if constraint.rhs < 0 or constraint.rhs != int(constraint.rhs):
        return False
    for group in problem.groups:
        for choice in group.choices:
            use = choice.use(constraint.name)
            if use < 0 or use != int(use):
                return False
    return True


def solve(problem: MultiChoiceProblem) -> Solution:
    """Solve via multiple-choice knapsack DP.

    Raises:
        ValidationError: The problem does not have the knapsack shape
            (check with :func:`applicable` first).
        InfeasibleError: No assignment fits the budget.
    """
    if not applicable(problem):
        raise ValidationError(
            "problem is not a non-negative integer multiple-choice knapsack"
        )
    constraint = problem.constraints[0]
    budget = int(constraint.rhs)
    sign = 1.0 if problem.maximize else -1.0

    # value[w] = best achievable objective using total weight exactly <= w,
    # back[g][w] = (choice name, previous weight) for reconstruction.
    value = [0.0] + [_NEG_INF] * budget
    value[0] = 0.0
    # All weights start infeasible except 0 with no groups chosen yet.
    current = [_NEG_INF] * (budget + 1)
    current[0] = 0.0
    back: list[list[tuple[str, int] | None]] = []

    for group in problem.groups:
        nxt = [_NEG_INF] * (budget + 1)
        trace: list[tuple[str, int] | None] = [None] * (budget + 1)
        for w in range(budget + 1):
            if current[w] == _NEG_INF:
                continue
            for choice in group.choices:
                use = int(choice.use(constraint.name))
                w2 = w + use
                if w2 > budget:
                    continue
                candidate = current[w] + sign * choice.objective
                if candidate > nxt[w2]:
                    nxt[w2] = candidate
                    trace[w2] = (choice.name, w)
        current = nxt
        back.append(trace)

    best_w = max(range(budget + 1), key=lambda w: current[w])
    if current[best_w] == _NEG_INF:
        raise InfeasibleError("no assignment fits the knapsack budget")

    # Reconstruct the selection group by group, walking back.
    selection: dict[str, str] = {}
    w = best_w
    for index in range(len(problem.groups) - 1, -1, -1):
        step = back[index][w]
        assert step is not None, "DP reconstruction lost its trail"
        name, w_prev = step
        selection[problem.groups[index].name] = name
        w = w_prev

    return Solution(selection=selection, objective=sign * current[best_w])
