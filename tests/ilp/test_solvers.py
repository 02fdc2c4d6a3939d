"""ILP substrate: model validation, branch-and-bound, and its agreement
with the knapsack-DP, SciPy and brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, NodeLimitError, ValidationError
from repro.ilp import Choice, MultiChoiceProblem, branch_bound
from tests.ilp import knapsack, scipy_backend


def brute_force(problem):
    """Exhaustive reference solver."""
    best = None
    for combo in itertools.product(
        *[[c.name for c in g.choices] for g in problem.groups]
    ):
        selection = {g.name: c for g, c in zip(problem.groups, combo)}
        if not problem.is_feasible(selection):
            continue
        value = problem.evaluate(selection)
        if best is None or (
            value > best[0] if problem.maximize else value < best[0]
        ):
            best = (value, selection)
    return best


def knapsack_problem(budget=5):
    problem = MultiChoiceProblem(maximize=True)
    problem.add_group("p1", [
        Choice("slow", 2.0, {"w": 0}),
        Choice("fast", 5.0, {"w": 4}),
    ])
    problem.add_group("p2", [
        Choice("slow", 1.0, {"w": 0}),
        Choice("fast", 4.0, {"w": 3}),
    ])
    problem.add_constraint("w", "<=", budget)
    return problem


class TestModel:
    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            MultiChoiceProblem().add_group("g", [])

    def test_duplicate_group_rejected(self):
        p = MultiChoiceProblem()
        p.add_group("g", [Choice("a", 1.0)])
        with pytest.raises(ValidationError):
            p.add_group("g", [Choice("b", 1.0)])

    def test_duplicate_choice_rejected(self):
        with pytest.raises(ValidationError):
            MultiChoiceProblem().add_group(
                "g", [Choice("a", 1.0), Choice("a", 2.0)]
            )

    def test_duplicate_constraint_rejected(self):
        p = MultiChoiceProblem()
        p.add_constraint("w", "<=", 1)
        with pytest.raises(ValidationError):
            p.add_constraint("w", ">=", 0)

    def test_evaluate_and_feasible(self):
        p = knapsack_problem(budget=4)
        selection = {"p1": "fast", "p2": "slow"}
        assert p.evaluate(selection) == 6.0
        assert p.is_feasible(selection)
        assert not p.is_feasible({"p1": "fast", "p2": "fast"})

    def test_forbid_requires_full_coverage(self):
        p = knapsack_problem()
        with pytest.raises(ValidationError):
            p.forbid({"p1": "fast"})

    def test_forbid_rejects_unknown_group(self):
        p = knapsack_problem()
        with pytest.raises(ValidationError, match="unknown groups"):
            p.forbid({"p1": "fast", "p2": "slow", "p3": "fast"})
        assert p.forbidden == []

    def test_forbid_rejects_unknown_choice(self):
        p = knapsack_problem()
        with pytest.raises(ValidationError, match="'medium'"):
            p.forbid({"p1": "fast", "p2": "medium"})
        assert p.forbidden == []

    def test_forbidden_selection_infeasible(self):
        p = knapsack_problem(budget=4)
        p.forbid({"p1": "fast", "p2": "slow"})
        assert not p.is_feasible({"p1": "fast", "p2": "slow"})


class TestBranchBound:
    def test_simple_optimum(self):
        solution = branch_bound.solve(knapsack_problem(budget=4))
        assert solution.selection == {"p1": "fast", "p2": "slow"}
        assert solution.objective == 6.0

    def test_budget_allows_both(self):
        solution = branch_bound.solve(knapsack_problem(budget=7))
        assert solution.objective == 9.0

    def test_minimize(self):
        p = knapsack_problem(budget=7)
        p.maximize = False
        solution = branch_bound.solve(p)
        assert solution.objective == 3.0

    def test_infeasible(self):
        p = MultiChoiceProblem()
        p.add_group("g", [Choice("a", 1.0, {"w": 5})])
        p.add_constraint("w", "<=", 2)
        with pytest.raises(InfeasibleError):
            branch_bound.solve(p)

    def test_equality_constraint(self):
        p = MultiChoiceProblem()
        p.add_group("g1", [Choice("a", 1.0, {"w": 1}), Choice("b", 5.0, {"w": 2})])
        p.add_group("g2", [Choice("a", 1.0, {"w": 1}), Choice("b", 9.0, {"w": 2})])
        p.add_constraint("w", "==", 3)
        solution = branch_bound.solve(p)
        assert solution.objective == 10.0

    def test_ge_constraint(self):
        p = MultiChoiceProblem(maximize=False)
        p.add_group("g", [Choice("cheap", 1.0, {"q": 0}),
                          Choice("good", 3.0, {"q": 2})])
        p.add_constraint("q", ">=", 1)
        assert branch_bound.solve(p).selection["g"] == "good"

    def test_no_good_cut_forces_second_best(self):
        p = knapsack_problem(budget=7)
        best = branch_bound.solve(p)
        p.forbid(best.selection)
        second = branch_bound.solve(p)
        assert second.selection != best.selection
        assert second.objective <= best.objective

    def test_all_cuts_infeasible(self):
        p = MultiChoiceProblem()
        p.add_group("g", [Choice("a", 1.0), Choice("b", 2.0)])
        p.forbid({"g": "a"})
        p.forbid({"g": "b"})
        with pytest.raises(InfeasibleError):
            branch_bound.solve(p)

    def test_sibling_usage_leaves_no_residue(self):
        """Each node's row usage is its parent's plus its own choice's.
        Adding and then subtracting p's use of 1.0 turned 1e-9 into
        1.0000000827e-9, which then failed the ``<= 0`` row's tolerance
        at sibling q: the feasible optimum was reported infeasible."""
        p = MultiChoiceProblem(maximize=True)
        p.add_group("g0", [Choice("a", 5.0, {"r": 1e-9}),
                           Choice("b", -5.0, {"r": 5.0})])
        p.add_group("g1", [Choice("p", 1.0, {"r": 1.0}),
                           Choice("q", 0.0, {"r": 0.0})])
        p.add_constraint("r", "<=", 0)
        solution = branch_bound.solve(p)
        assert solution.selection == {"g0": "a", "g1": "q"}
        assert (solution.objective, solution.selection) == brute_force(p)

    def test_node_limit_is_not_infeasibility(self):
        p = knapsack_problem(budget=7)
        p.forbid(branch_bound.solve(p).selection)
        with pytest.raises(NodeLimitError) as aborted:
            branch_bound.solve(p, node_limit=2)
        assert not isinstance(aborted.value, InfeasibleError)
        assert aborted.value.nodes == 3  # the node that crossed the budget
        # The same cut-constrained problem is feasible under the default.
        assert branch_bound.solve(p).nodes > 2


class TestKnapsackDP:
    def test_applicable(self):
        assert knapsack.applicable(knapsack_problem())

    def test_not_applicable_cases(self):
        p = knapsack_problem()
        p.add_constraint("z", "<=", 1)
        assert not knapsack.applicable(p)

        q = MultiChoiceProblem()
        q.add_group("g", [Choice("a", 1.0, {"w": 0.5})])
        q.add_constraint("w", "<=", 3)
        assert not knapsack.applicable(q)  # fractional weight

        r = knapsack_problem()
        r.forbid({"p1": "slow", "p2": "slow"})
        assert not knapsack.applicable(r)

    def test_matches_branch_bound(self):
        for budget in range(0, 9):
            p = knapsack_problem(budget=budget)
            assert knapsack.solve(p).objective == \
                branch_bound.solve(p).objective

    def test_rejects_inapplicable(self):
        p = knapsack_problem()
        p.add_constraint("z", ">=", 0)
        with pytest.raises(ValidationError):
            knapsack.solve(p)


@pytest.mark.skipif(not scipy_backend.available(), reason="scipy missing")
class TestScipyBackend:
    def test_matches_branch_bound(self):
        p = knapsack_problem(budget=4)
        assert scipy_backend.solve(p).objective == 6.0

    def test_no_good_cuts(self):
        p = knapsack_problem(budget=7)
        best = scipy_backend.solve(p)
        p.forbid(best.selection)
        second = scipy_backend.solve(p)
        assert second.selection != best.selection

    def test_infeasible(self):
        p = MultiChoiceProblem()
        p.add_group("g", [Choice("a", 1.0, {"w": 5})])
        p.add_constraint("w", "<=", 2)
        with pytest.raises(InfeasibleError):
            scipy_backend.solve(p)


@st.composite
def random_problems(draw):
    problem = MultiChoiceProblem(maximize=draw(st.booleans()))
    n_groups = draw(st.integers(1, 4))
    for g in range(n_groups):
        n_choices = draw(st.integers(1, 4))
        problem.add_group(
            f"g{g}",
            [
                Choice(
                    f"c{i}",
                    draw(st.integers(-10, 10)),
                    {"w": draw(st.integers(0, 6))},
                )
                for i in range(n_choices)
            ],
        )
    problem.add_constraint("w", "<=", draw(st.integers(0, 12)))
    return problem


class TestAgreementProperties:
    @settings(max_examples=120, deadline=None)
    @given(problem=random_problems())
    def test_branch_bound_equals_brute_force(self, problem):
        reference = brute_force(problem)
        try:
            solution = branch_bound.solve(problem)
        except InfeasibleError:
            assert reference is None
            return
        assert reference is not None
        assert solution.objective == pytest.approx(reference[0])
        assert problem.is_feasible(solution.selection)

    @settings(max_examples=60, deadline=None)
    @given(problem=random_problems())
    def test_knapsack_dp_agrees_when_applicable(self, problem):
        if not knapsack.applicable(problem):
            return
        reference = brute_force(problem)
        try:
            solution = knapsack.solve(problem)
        except InfeasibleError:
            assert reference is None
            return
        assert solution.objective == pytest.approx(reference[0])

    @settings(max_examples=40, deadline=None)
    @given(problem=random_problems())
    def test_scipy_agrees(self, problem):
        if not scipy_backend.available():
            return
        reference = brute_force(problem)
        try:
            solution = scipy_backend.solve(problem)
        except InfeasibleError:
            assert reference is None
            return
        assert reference is not None
        assert solution.objective == pytest.approx(reference[0])
