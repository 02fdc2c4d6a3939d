"""The level sweep of :mod:`repro.ilp.branch_bound` is exact.

Every case must give the same ``(selection, objective, nodes)`` as the
scalar depth-first oracle in ``tests/ilp/dfs_reference.py`` (the solver as
it was before the sweep), or raise the same exception with the same
``.nodes``.  The sweep normally starts only after
``_SWEEP_AFTER_NODES`` nodes; here it is also forced on from the first
node, with frontier caps small enough that most sweeps give up and hand
their subtree back to the depth-first search.
"""

import random

import pytest

from repro.errors import InfeasibleError, NodeLimitError
from repro.ilp import Choice, MultiChoiceProblem, branch_bound
from repro.ilp.model import Sense
from tests.ilp import dfs_reference

DEFAULT_LIMIT = 5_000_000


def outcome(solve, problem, node_limit=DEFAULT_LIMIT):
    """What a solver returns or raises, comparable across solvers (the
    selection as an item list, so its order counts too)."""
    try:
        solution = solve(problem, node_limit)
    except NodeLimitError as error:
        return "NodeLimitError", error.nodes
    except InfeasibleError:
        return "InfeasibleError", None
    return list(solution.selection.items()), solution.objective, solution.nodes


#: Values whose sums land exactly on ``x + 1e-9``, the pruning tolerance,
#: so that the bound and interval tests meet their ties.
TOLERANCE_STEPS = (0.0, 1e-9, -1e-9, 2e-9, 1.0, -1.0)


def random_problem(rng, data):
    """1-9 groups of 1-4 choices, 0-3 rows of any sense, 0-6 cuts, on
    half-integer, three-decimal or tolerance-step ``data``."""

    def number(low, high):
        if data == "half":
            return rng.randint(2 * low, 2 * high) / 2
        if data == "decimal":
            return round(rng.uniform(low, high), 3)
        return rng.choice(TOLERANCE_STEPS)

    problem = MultiChoiceProblem(maximize=rng.random() < 0.5)
    rows = [f"r{index}" for index in range(rng.randint(0, 3))]
    for group in range(rng.randint(1, 9)):
        problem.add_group(f"g{group}", [
            Choice(
                f"c{index}",
                number(-10, 10),
                {row: number(-2, 6) for row in rows if rng.random() < 0.8},
            )
            for index in range(rng.randint(1, 4))
        ])
    for row in rows:
        sense = rng.choice(list(Sense))
        if sense is Sense.EQ:
            # The use of some full selection, so the row can be met.
            rhs = sum(rng.choice(g.choices).use(row) for g in problem.groups)
        else:
            rhs = number(0, 2 * len(problem.groups))
        problem.add_constraint(row, sense, rhs)
    for _ in range(rng.randint(0, 6)):
        problem.forbid({g.name: rng.choice(g.choices).name for g in problem.groups})
    return problem


def random_cases(seed, count, kinds=("half", "decimal")):
    rng = random.Random(seed)
    return [
        (random_problem(rng, kinds[index % len(kinds)]), rng.randint(1, 200))
        for index in range(count)
    ]


@pytest.fixture
def sweep_everywhere(monkeypatch):
    """Sweep from the first node, with the frontier cap given to it."""

    def configure(cap):
        monkeypatch.setattr(branch_bound, "_SWEEP_AFTER_NODES", 0)
        monkeypatch.setattr(branch_bound, "_SWEEP_MAX_FRONTIER", cap)

    return configure


CAPS = [4, 64, branch_bound._SWEEP_MAX_FRONTIER]


class TestAgainstScalarSearch:
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("seed", range(4))
    def test_forced_sweep_matches(self, sweep_everywhere, cap, seed):
        sweep_everywhere(cap)
        for problem, limit in random_cases(seed, 100):
            for node_limit in (limit, DEFAULT_LIMIT):
                assert outcome(branch_bound.solve, problem, node_limit) == \
                    outcome(dfs_reference.solve, problem, node_limit)

    @pytest.mark.parametrize("seed", range(4, 6))
    def test_default_thresholds_match(self, seed):
        for problem, limit in random_cases(seed, 100):
            for node_limit in (limit, DEFAULT_LIMIT):
                assert outcome(branch_bound.solve, problem, node_limit) == \
                    outcome(dfs_reference.solve, problem, node_limit)

    def test_cases_cover_every_outcome(self):
        kinds = set()
        for problem, limit in random_cases(0, 100):
            result = outcome(dfs_reference.solve, problem, limit)
            kinds.add(result[0] if isinstance(result[0], str) else "solved")
        assert kinds == {"solved", "InfeasibleError", "NodeLimitError"}


class TestToleranceTies:
    """On tolerance-step data the bound and interval tests meet exact ties
    (``value + suffix == best + 1e-9``).  The oracle here is the solver's
    own scalar search: the pre-sweep solver's ``+=``/``-=`` usage can carry
    an ulp of residue from an earlier sibling, which flips such ties
    (``test_solvers.py::TestBranchBound::test_sibling_usage_leaves_no_residue``)."""

    @pytest.mark.parametrize("cap", CAPS)
    def test_forced_sweep_matches_scalar(self, monkeypatch, cap):
        cases = random_cases(6, 200, kinds=("tolerance",))
        monkeypatch.setattr(branch_bound, "_SWEEP_AFTER_NODES", float("inf"))
        scalar = [
            outcome(branch_bound.solve, problem, node_limit)
            for problem, limit in cases
            for node_limit in (limit, DEFAULT_LIMIT)
        ]
        monkeypatch.setattr(branch_bound, "_SWEEP_AFTER_NODES", 0)
        monkeypatch.setattr(branch_bound, "_SWEEP_MAX_FRONTIER", cap)
        swept = [
            outcome(branch_bound.solve, problem, node_limit)
            for problem, limit in cases
            for node_limit in (limit, DEFAULT_LIMIT)
        ]
        assert swept == scalar


class TestSweepBudget:
    def parity_problem(self):
        """Eight groups whose choices use 0 or 1 of an ``==`` row with a
        half-integer right-hand side: infeasible, but the interval test
        prunes only near the leaves, so the search visits 31,381 nodes
        and never finds an incumbent.  One cut keeps a prefix from being
        swept."""
        problem = MultiChoiceProblem(maximize=True)
        for group in range(8):
            problem.add_group(f"g{group}", [
                Choice(f"c{index}", float(index), {"r": float(index % 2)})
                for index in range(4)
            ])
        problem.add_constraint("r", "==", 4.5)
        problem.forbid({f"g{group}": "c3" for group in range(8)})
        return problem

    @pytest.mark.parametrize(
        "node_limit", [1, 2, 37, 1_000, 20_000, 31_380, 31_381]
    )
    def test_budget_crossed_inside_a_swept_subtree(
        self, sweep_everywhere, node_limit
    ):
        sweep_everywhere(branch_bound._SWEEP_MAX_FRONTIER)
        problem = self.parity_problem()
        expected = (
            ("NodeLimitError", node_limit + 1) if node_limit < 31_381
            else ("InfeasibleError", None)
        )
        assert outcome(dfs_reference.solve, problem, node_limit) == expected
        assert outcome(branch_bound.solve, problem, node_limit) == expected
