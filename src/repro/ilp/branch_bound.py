"""Exact branch-and-bound solver for multiple-choice 0-1 programs.

The GLPK substitute.  Search is depth-first over groups with:

* an **objective bound**: the incumbent cannot be beaten if the current
  value plus the per-group best remaining contributions does not exceed
  it.  For the single-``<=``-constraint shape (the methodology's knapsack
  variants) the much tighter **fractional multiple-choice-knapsack bound**
  is used instead: the LP relaxation of the remaining subproblem, solved
  greedily over the per-group convex hulls of (consumption, objective)
  increments — the textbook MCKP bound;
* **dominance filtering** within groups when every constraint is ``<=``:
  a choice that is no better on the objective and no cheaper on every row
  can be dropped outright;
* **feasibility pruning** per side constraint: interval arithmetic over
  the undecided groups (minimum/maximum possible consumption) shows some
  partial assignments can never satisfy a ``<=``/``==``/``>=`` row;
* group ordering by descending objective spread, so impactful decisions
  happen near the root;
* **presolve** of separable groups (no constraint contact) when no
  no-good cuts are present;
* **level sweeps** of subtrees under the weak bound (cuts present, or
  rows other than one ``<=``), once a search has visited
  :data:`_SWEEP_AFTER_NODES` nodes.

The sweep changes how nodes are visited, not which: results and node
counts are those of the plain depth-first search.  With the incumbent held
fixed, the search decides each node from that node's own
``(depth, value, usage)`` alone: the bound test, the per-row interval
tests, and at a leaf the cut test.  The incumbent changes only at a leaf
that survives the bound and interval tests (it then beats the incumbent
by more than the tolerance) and is not cut.  So a subtree in which no
leaf survives those tests is visited with a fixed incumbent, and its
visit count does not depend on the visit order.  ``sweep`` counts such a
subtree level by level on float64 frontier arrays, with the same IEEE
expressions as the scalar tests.  It hands the subtree back to the
depth-first search, which then tries each child, when a leaf survives
(cut or not, the search decides) or the frontier would pass
:data:`_SWEEP_MAX_FRONTIER`.  A budget crossed inside a counted subtree
raises :class:`~repro.errors.NodeLimitError` with ``node_limit + 1``
nodes, as the depth-first search would.

Correctness is property-tested against exhaustive enumeration, the
knapsack DP and the SciPy MILP oracles in ``tests/ilp``, and node for node
against the scalar search in ``tests/ilp/dfs_reference.py``.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

import numpy as np

from repro.errors import InfeasibleError, NodeLimitError
from repro.ilp.model import Choice, Group, MultiChoiceProblem, Sense, Solution

_PRUNE_TOL = 1e-9

#: A weak-bound search counts subtrees by level sweeps only after it has
#: visited this many nodes one at a time, so small solves pay no numpy
#: overhead.  The soc-sweep ledger workload's 218 solves (at most 221
#: nodes each) take 18-21 ms in all on the scalar search, and 52 ms when
#: sweeping from the first node (2-core Xeon, median of 11 runs); the
#: 5,000,001-node MPEG-2 re-solve passes this point early.
_SWEEP_AFTER_NODES = 20_000

#: Largest frontier (entries per row) a level sweep builds before it hands
#: the subtree back to the depth-first search, which then sweeps the
#: children.  On the MPEG-2 Fig. 6 left cut re-solve (26 groups, 5,000,001
#: nodes, same 2-core Xeon) caps of 1,024 / 4,096 / 16,384 / 65,536 /
#: 262,144 took 0.64-0.74 / 0.28-0.43 / 0.15-0.26 / 0.19-0.29 / 0.30-0.46
#: s, and the two largest raised peak RSS by 2.2 and 7.5 MB.
_SWEEP_MAX_FRONTIER = 16_384


def _dominance_filter(
    choices: tuple[Choice, ...], sign: float, constraint_names: list[str]
) -> list[Choice]:
    """Drop choices dominated within their group (all-``<=`` problems only:
    lower-or-equal objective and higher-or-equal use on every row)."""
    kept: list[Choice] = []
    for position, candidate in enumerate(choices):
        dominated = False
        for other_position, other in enumerate(choices):
            if other_position == position:
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
            if strictly or other_position < position:
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

    # Per depth, in branching order: each choice's index, objective gain
    # and use of every row.  A node is (depth, value, usage), with value
    # and usage path sums of these.
    branches = [
        [
            (
                index,
                sign * c.objective,
                tuple([c.use(name) for name in constraint_names]),
            )
            for index, c in enumerate(choices)
        ]
        for choices in ordered_choices
    ]

    # Per-group maxima/minima used by the bounds, precomputed.
    obj_max = [
        max(sign * c.objective for c in choices) for choices in group_choices
    ]
    suffix_obj = _suffix_sums(obj_max)
    rows = [
        _Row(
            constraint.sense is not Sense.GE,
            constraint.sense is not Sense.LE,
            constraint.rhs + _PRUNE_TOL,
            constraint.rhs - _PRUNE_TOL,
            _suffix_sums([
                min(c.use(constraint.name) for c in choices)
                for choices in group_choices
            ]),
            _suffix_sums([
                max(c.use(constraint.name) for c in choices)
                for choices in group_choices
            ]),
        )
        for constraint in problem.constraints
    ]

    # The tight fractional-MCKP bound applies to the single-<= shape.
    mckp: _MckpBound | None = None
    mckp_rhs = 0.0
    if (
        len(problem.constraints) == 1
        and problem.constraints[0].sense is Sense.LE
        and not problem.forbidden
    ):
        mckp = _MckpBound(group_choices, sign, constraint_names[0])
        mckp_rhs = float(problem.constraints[0].rhs)

    depth_count = len(groups)
    cuts = _cut_paths(problem, groups, ordered_choices)
    # Only weak-bound searches sweep: the MCKP bound is a greedy loop per
    # node, not one array expression, and its searches stay small (at most
    # 6,155 nodes in the MPEG-2 explorations).
    sweeping = mckp is None
    # Per depth, the gains and per-row uses as arrays (on the first sweep).
    arrays: list[tuple[np.ndarray, list[np.ndarray]]] = []

    best_value = float("-inf")
    best_path: list[int] | None = None
    nodes = 0
    path: list[int] = []

    def feasible(depth: int, usage: tuple[float, ...]) -> bool:
        for (upper, lower, hi, lo, use_min, use_max), used in zip(rows, usage):
            if upper and used + use_min[depth] > hi:
                return False
            if lower and used + use_max[depth] < lo:
                return False
        return True

    def dfs(depth: int, value: float, usage: tuple[float, ...]) -> None:
        nonlocal nodes, best_value, best_path
        nodes += 1
        if nodes > node_limit:
            raise _node_limit_error(node_limit, nodes)
        if mckp is not None:
            bound = mckp.bound(depth, mckp_rhs - usage[0])
            if bound == float("-inf"):
                return
            if best_path is not None and \
                    value + bound <= best_value + _PRUNE_TOL:
                return
        elif best_path is not None and \
                value + suffix_obj[depth] <= best_value + _PRUNE_TOL:
            return
        if rows and not feasible(depth, usage):
            return
        if depth == depth_count:
            if cuts and tuple(path) in cuts:
                return
            if value > best_value:
                best_value = value
                best_path = list(path)
            return
        try_sweep = sweeping and nodes >= _SWEEP_AFTER_NODES
        for index, gain, use in branches[depth]:
            path.append(index)
            child_value = value + gain
            child_usage = tuple(map(add, usage, use))
            if try_sweep:
                count = sweep(depth + 1, child_value, child_usage)
                if count is not None:
                    nodes += count
                    if nodes > node_limit:
                        # The whole subtree is visited with a fixed
                        # incumbent, so the search crosses its budget
                        # inside it, at node node_limit + 1.
                        raise _node_limit_error(node_limit, node_limit + 1)
                    path.pop()
                    continue
            dfs(depth + 1, child_value, child_usage)
            path.pop()

    def sweep(
        depth: int, value: float, usage: tuple[float, ...]
    ) -> int | None:
        """Nodes the depth-first search visits in the subtree of the node
        (depth, value, usage); ``None`` when a leaf there survives the
        bound and interval tests (the search may take it as incumbent) or
        the frontier outgrows :data:`_SWEEP_MAX_FRONTIER`."""
        if not arrays:
            for level in branches:
                _, level_gains, level_uses = zip(*level)
                arrays.append((
                    np.array(level_gains, dtype=np.float64),
                    [
                        np.array(column, dtype=np.float64)
                        for column in zip(*level_uses)
                    ],
                ))
        incumbent = best_value + _PRUNE_TOL if best_path is not None else None
        values = np.array([value])
        usages = [np.array([used]) for used in usage]
        count = 0
        while True:
            count += values.size
            # The same pruning tests, in the same IEEE expressions, as
            # dfs(); a node survives when none of them prunes it.
            if incumbent is None:
                keep = np.ones(values.size, dtype=bool)
            else:
                keep = ~(values + suffix_obj[depth] <= incumbent)
            for row, used in zip(rows, usages):
                if row.upper:
                    keep &= ~(used + row.use_min[depth] > row.hi)
                if row.lower:
                    keep &= ~(used + row.use_max[depth] < row.lo)
            if depth == depth_count:
                # A surviving leaf beats the incumbent by more than the
                # tolerance; unless it is cut, the search takes it.
                return None if keep.any() else count
            alive = int(np.count_nonzero(keep))
            if alive == 0:
                return count
            level_gains, level_uses = arrays[depth]
            if alive * level_gains.size > _SWEEP_MAX_FRONTIER:
                return None
            values = (values[keep][:, None] + level_gains).ravel()
            usages = [
                (used[keep][:, None] + column).ravel()
                for used, column in zip(usages, level_uses)
            ]
            depth += 1

    dfs(0, 0.0, (0.0,) * len(rows))
    if best_path is None:
        raise InfeasibleError(
            "multiple-choice program has no feasible assignment"
        )
    full_selection = {
        group.name: choices[index].name
        for group, choices, index in zip(groups, ordered_choices, best_path)
    }
    full_selection.update(presolved)
    return Solution(
        selection=full_selection,
        objective=sign * (best_value + presolved_value),
        nodes=nodes,
    )


class _Row(NamedTuple):
    """One side constraint as the pruning tests read it."""

    #: Whether the row bounds its sum from above (``<=``, ``==``) and
    #: from below (``>=``, ``==``).
    upper: bool
    lower: bool
    #: ``rhs + tol`` and ``rhs - tol``.
    hi: float
    lo: float
    #: Suffix sums over the undecided groups of the least and the most
    #: use of this row.
    use_min: list[float]
    use_max: list[float]


def _cut_paths(
    problem: MultiChoiceProblem,
    groups: list[Group],
    ordered_choices: list[list[Choice]],
) -> set[tuple[int, ...]]:
    """The no-good cuts as choice-index paths in branching order.  A cut
    that does not name exactly the searched groups, or names a choice a
    group does not have, matches no selection and is left out."""
    paths: set[tuple[int, ...]] = set()
    if not problem.forbidden:
        return paths
    position = [
        {choice.name: index for index, choice in enumerate(choices)}
        for choices in ordered_choices
    ]
    for cut in problem.forbidden:
        if len(cut) != len(groups):
            continue
        try:
            paths.add(tuple([
                index_of[cut[group.name]]
                for group, index_of in zip(groups, position)
            ]))
        except KeyError:
            continue
    return paths


def _node_limit_error(node_limit: int, nodes: int) -> NodeLimitError:
    return NodeLimitError(
        f"branch-and-bound exceeded {node_limit} nodes; "
        "the instance is larger than this solver is meant for",
        nodes=nodes,
    )


def _suffix_sums(values: list[float]) -> list[float]:
    """``suffix[i] = sum(values[i:])`` with ``suffix[len] = 0``."""
    suffix = [0.0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    return suffix
