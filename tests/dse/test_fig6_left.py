"""Fig. 6 left, pinned: timing optimization from M2 to TCT = 2,000 KCycles.

The run ends where the no-good-cut re-solve after 11 visited
configurations exhausts the ILP's 5,000,000-node budget (EXPERIMENTS.md,
FIG6 left).  The same run supplies that re-solve's problem, on which the
swept branch-and-bound is checked node for node against the scalar
depth-first oracle.
"""

from fractions import Fraction

import pytest

from repro.dse import Explorer, SystemConfiguration
from repro.ilp import branch_bound
from repro.mpeg2 import build_mpeg2_library, build_mpeg2_system, m2_selection
from repro.obs import collect
from repro.ordering import declaration_ordering
from tests.ilp import dfs_reference
from tests.ilp.test_sweep import outcome

#: Nodes of the ten solved ILPs before the aborted re-solve, plus the
#: aborted re-solve's 5,000,001.
ILP_NODES = 28_454 + 5_000_001


@pytest.fixture(scope="module")
def fig6_left():
    """The run, its metrics, and the problem of every ILP solve."""
    system = build_mpeg2_system()
    library = build_mpeg2_library()
    config = SystemConfiguration(
        system, library, m2_selection(library), declaration_ordering(system)
    )
    problems = []
    solve = branch_bound.solve

    def recording(problem, node_limit=5_000_000):
        problems.append(problem)
        return solve(problem, node_limit)

    with pytest.MonkeyPatch.context() as patch, collect() as registry:
        patch.setattr(branch_bound, "solve", recording)
        result = Explorer(2_000_000).run(config)
    return result, registry, problems


@pytest.fixture(scope="module")
def reference_outcomes(fig6_left):
    """The scalar oracle's outcome on the cut re-solve, per budget."""
    problem = fig6_left[2][-1]
    return {
        limit: outcome(dfs_reference.solve, problem, limit)
        for limit in (100_000, 300_000)
    }


class TestEndpoint:
    def test_final_cycle_time_and_area(self, fig6_left):
        final = fig6_left[0].final_record
        assert final.cycle_time == Fraction(3990855, 2)
        assert final.area == 1646384.3

    def test_stopped_by_the_node_budget(self, fig6_left):
        result, _, problems = fig6_left
        assert result.stop_reason == "ILP node limit reached (5000001 nodes)"
        # Eleven configurations were visited; the latency caps no longer
        # offer one of them, so it needs no cut.
        assert len(problems[-1].forbidden) == 10

    def test_aborted_nodes_are_counted(self, fig6_left):
        registry = fig6_left[1]
        assert registry.counter("dse.ilp.nodes").value == ILP_NODES


class TestCutResolve:
    @pytest.mark.parametrize("cap", [64, branch_bound._SWEEP_MAX_FRONTIER])
    @pytest.mark.parametrize("node_limit", [100_000, 300_000])
    def test_matches_scalar_search(
        self, fig6_left, reference_outcomes, monkeypatch, cap, node_limit
    ):
        monkeypatch.setattr(branch_bound, "_SWEEP_MAX_FRONTIER", cap)
        expected = reference_outcomes[node_limit]
        assert expected == ("NodeLimitError", node_limit + 1)
        assert outcome(branch_bound.solve, fig6_left[2][-1], node_limit) == \
            expected
