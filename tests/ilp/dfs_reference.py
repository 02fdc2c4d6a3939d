"""Scalar depth-first branch-and-bound: the oracle for the level sweep.

This is :func:`repro.ilp.branch_bound.solve` as it was before subtrees were
counted by a vectorized level sweep, kept verbatim (including the quadratic
``choices.index`` dominance filter and the shared ``+=``/``-=`` usage
dict).  The differential tests in ``tests/ilp/test_sweep.py`` require the
production solver to return the same ``(selection, objective, nodes)`` or
raise the same exception with the same ``.nodes``.  One difference is
intended: the shared usage dict can keep an ulp of residue from an
earlier sibling, which the production solver's path sums do not, so on
data that puts a sum exactly on a tolerance tie the two can disagree.

Search is depth-first over groups with:

* an **objective bound**: the incumbent cannot be beaten if the current
  value plus the per-group best remaining contributions does not exceed
  it.  For the single-``<=``-constraint shape the **fractional
  multiple-choice-knapsack bound** is used instead;
* **dominance filtering** within groups when every constraint is ``<=``
  and there are no cuts;
* **feasibility pruning** per side constraint by interval arithmetic;
* group ordering by descending objective spread;
* **presolve** of separable groups when no no-good cuts are present.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfeasibleError, NodeLimitError
from repro.ilp.model import Choice, MultiChoiceProblem, Sense, Solution


@dataclass
class _SearchState:
    best_value: float
    best_selection: dict[str, str] | None
    nodes: int


_PRUNE_TOL = 1e-9


def _dominance_filter(
    choices: tuple[Choice, ...], sign: float, constraint_names: list[str]
) -> list[Choice]:
    """Drop choices dominated within their group (all-``<=`` problems only:
    lower-or-equal objective and higher-or-equal use on every row)."""
    kept: list[Choice] = []
    for candidate in choices:
        dominated = False
        for other in choices:
            if other is candidate:
                continue
            if sign * other.objective < sign * candidate.objective:
                continue
            if any(
                other.use(name) > candidate.use(name)
                for name in constraint_names
            ):
                continue
            # `other` is at least as good everywhere; break ties by
            # keeping the first occurrence.
            strictly = (
                sign * other.objective > sign * candidate.objective
                or any(
                    other.use(name) < candidate.use(name)
                    for name in constraint_names
                )
            )
            if strictly or choices.index(other) < choices.index(candidate):
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    return kept


class _MckpBound:
    """Fractional multiple-choice-knapsack upper bound (single ``<=`` row).

    Precomputes, per group, the lower convex hull of (weight, value)
    points; the LP optimum of the remaining groups under a residual budget
    is the per-group hull bases plus the best incremental steps taken
    greedily in global ratio order (within-group order is automatic
    because hull ratios decrease).
    """

    def __init__(
        self,
        group_choices: list[list[Choice]],
        sign: float,
        constraint: str,
    ):
        self.base_weight: list[float] = []
        self.base_value: list[float] = []
        #: (ratio, delta_weight, delta_value, group_index), ratio desc.
        self.steps: list[tuple[float, float, float, int]] = []
        for index, choices in enumerate(group_choices):
            # Sort by (weight asc, value desc); keep the best value per
            # weight and only strictly improving values (heavier points
            # that do not improve are integer-dominated).
            points = sorted(
                ((c.use(constraint), sign * c.objective) for c in choices),
                key=lambda p: (p[0], -p[1]),
            )
            filtered: list[tuple[float, float]] = []
            best_value = float("-inf")
            for weight, value in points:
                if filtered and weight == filtered[-1][0]:
                    continue
                if value <= best_value:
                    continue
                filtered.append((weight, value))
                best_value = value
            # Upper concave hull: incremental ratios must decrease.
            hull: list[tuple[float, float]] = []
            for weight, value in filtered:
                while len(hull) >= 2:
                    (w1, v1), (w2, v2) = hull[-2], hull[-1]
                    if (v2 - v1) * (weight - w2) <= (value - v2) * (w2 - w1):
                        hull.pop()
                    else:
                        break
                hull.append((weight, value))
            self.base_weight.append(hull[0][0])
            self.base_value.append(hull[0][1])
            for (w1, v1), (w2, v2) in zip(hull, hull[1:]):
                delta_w = w2 - w1
                delta_v = v2 - v1
                self.steps.append((delta_v / delta_w, delta_w, delta_v, index))
        self.steps.sort(key=lambda s: -s[0])
        # Suffix sums of the bases for O(1) node lookups.
        n = len(group_choices)
        self.suffix_base_weight = [0.0] * (n + 1)
        self.suffix_base_value = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.suffix_base_weight[i] = (
                self.suffix_base_weight[i + 1] + self.base_weight[i]
            )
            self.suffix_base_value[i] = (
                self.suffix_base_value[i + 1] + self.base_value[i]
            )

    def bound(self, depth: int, budget_left: float) -> float:
        """Upper bound on the remaining groups' value within the budget
        (``-inf`` when even the cheapest bases do not fit)."""
        slack = budget_left - self.suffix_base_weight[depth]
        if slack < -_PRUNE_TOL:
            return float("-inf")
        value = self.suffix_base_value[depth]
        for ratio, delta_w, delta_v, index in self.steps:
            if index < depth:
                continue
            if slack <= _PRUNE_TOL:
                break
            if ratio <= 0:
                break  # remaining steps cannot improve the bound
            if delta_w <= slack:
                value += delta_v
                slack -= delta_w
            else:
                value += ratio * slack
                slack = 0.0
                break
        return value


def solve(problem: MultiChoiceProblem, node_limit: int = 5_000_000) -> Solution:
    """Solve exactly; raises :class:`~repro.errors.InfeasibleError` when no
    assignment satisfies the constraints (including no-good cuts), and
    :class:`~repro.errors.NodeLimitError` when the search visits more than
    ``node_limit`` nodes before deciding."""
    sign = 1.0 if problem.maximize else -1.0

    # Presolve: a group none of whose choices touches any present
    # constraint is separable — its best choice is decided locally.  Only
    # safe without no-good cuts (cuts couple all groups).
    presolved: dict[str, str] = {}
    presolved_value = 0.0
    search_groups = []
    constraint_names = [c.name for c in problem.constraints]
    if not problem.forbidden:
        for group in problem.groups:
            touches = any(
                c.use(name) != 0 for c in group.choices for name in constraint_names
            )
            if touches:
                search_groups.append(group)
            else:
                best_choice = max(group.choices, key=lambda c: sign * c.objective)
                presolved[group.name] = best_choice.name
                presolved_value += sign * best_choice.objective
    else:
        search_groups = list(problem.groups)

    groups = sorted(
        search_groups,
        key=lambda g: -(
            max(sign * c.objective for c in g.choices)
            - min(sign * c.objective for c in g.choices)
        ),
    )

    # Dominance filtering (sound only for all-<= rows without cuts: a
    # dominated choice can never appear in an optimal solution, but it
    # might in the post-cut second best).
    all_le = all(c.sense is Sense.LE for c in problem.constraints)
    if all_le and not problem.forbidden:
        group_choices = [
            _dominance_filter(g.choices, sign, constraint_names) for g in groups
        ]
    else:
        group_choices = [list(g.choices) for g in groups]
    ordered_choices = [
        sorted(choices, key=lambda c: -sign * c.objective)
        for choices in group_choices
    ]

    # Per-group maxima/minima used by the bounds, precomputed.
    obj_max = [
        max(sign * c.objective for c in choices) for choices in group_choices
    ]
    suffix_obj = _suffix_sums(obj_max)
    use_min: dict[str, list[float]] = {}
    use_max: dict[str, list[float]] = {}
    for name in constraint_names:
        mins = [min(c.use(name) for c in choices) for choices in group_choices]
        maxs = [max(c.use(name) for c in choices) for choices in group_choices]
        use_min[name] = _suffix_sums(mins)
        use_max[name] = _suffix_sums(maxs)

    # The tight fractional-MCKP bound applies to the single-<= shape.
    mckp: _MckpBound | None = None
    mckp_row = ""
    if (
        len(problem.constraints) == 1
        and problem.constraints[0].sense is Sense.LE
        and not problem.forbidden
    ):
        mckp_row = problem.constraints[0].name
        mckp = _MckpBound(group_choices, sign, mckp_row)

    state = _SearchState(best_value=float("-inf"), best_selection=None, nodes=0)
    selection: dict[str, str] = {}
    usage = {name: 0.0 for name in constraint_names}

    def feasible_reachable(depth: int) -> bool:
        for constraint in problem.constraints:
            lo = usage[constraint.name] + use_min[constraint.name][depth]
            hi = usage[constraint.name] + use_max[constraint.name][depth]
            if constraint.sense is Sense.LE and lo > constraint.rhs + 1e-9:
                return False
            if constraint.sense is Sense.GE and hi < constraint.rhs - 1e-9:
                return False
            if constraint.sense is Sense.EQ and (
                lo > constraint.rhs + 1e-9 or hi < constraint.rhs - 1e-9
            ):
                return False
        return True

    def dfs(depth: int, value: float) -> None:
        state.nodes += 1
        if state.nodes > node_limit:
            raise NodeLimitError(
                f"branch-and-bound exceeded {node_limit} nodes; "
                "the instance is larger than this solver is meant for",
                nodes=state.nodes,
            )
        if mckp is not None:
            bound = mckp.bound(depth, problem.constraints[0].rhs - usage[mckp_row])
            if bound == float("-inf"):
                return
            if state.best_selection is not None and \
                    value + bound <= state.best_value + _PRUNE_TOL:
                return
        elif state.best_selection is not None and \
                value + suffix_obj[depth] <= state.best_value + _PRUNE_TOL:
            return
        if not feasible_reachable(depth):
            return
        if depth == len(groups):
            if problem.forbidden and not _passes_cuts(problem, selection):
                return
            if value > state.best_value:
                state.best_value = value
                state.best_selection = dict(selection)
            return
        group = groups[depth]
        for choice in ordered_choices[depth]:
            selection[group.name] = choice.name
            for name in constraint_names:
                usage[name] += choice.use(name)
            dfs(depth + 1, value + sign * choice.objective)
            for name in constraint_names:
                usage[name] -= choice.use(name)
            del selection[group.name]

    dfs(0, 0.0)
    if state.best_selection is None:
        raise InfeasibleError(
            "multiple-choice program has no feasible assignment"
        )
    full_selection = dict(state.best_selection)
    full_selection.update(presolved)
    return Solution(
        selection=full_selection,
        objective=sign * (state.best_value + presolved_value),
        nodes=state.nodes,
    )


def _passes_cuts(problem: MultiChoiceProblem, selection: dict[str, str]) -> bool:
    return all(dict(cut) != selection for cut in problem.forbidden)


def _suffix_sums(values: list[float]) -> list[float]:
    """``suffix[i] = sum(values[i:])`` with ``suffix[len] = 0``."""
    suffix = [0.0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    return suffix
