"""Ablation benches for the design choices called out in DESIGN.md §6.

Not paper artifacts, but quantified justifications of implementation
choices: the cycle-time engine (Howard vs the Lawler and enumeration
oracles), the integer Howard kernel vs its Fraction-arithmetic reference,
and branch-and-bound vs the knapsack-DP and SciPy ILP oracles.  The
oracles live in ``tests/tmg`` and ``tests/ilp``.
"""

import pytest

from repro.core import motivating_example, synthetic_soc
from repro.ilp import Choice, MultiChoiceProblem, branch_bound
from repro.model import build_tmg
from repro.ordering import channel_ordering
from repro.tmg import analyze, build_event_graph
from tests.ilp import knapsack, scipy_backend
from tests.tmg.enumeration import maximum_cycle_ratio_enumerated
from tests.tmg.lawler import maximum_cycle_ratio_lawler


@pytest.fixture(scope="module")
def small_graph():
    system = motivating_example()
    return build_event_graph(build_tmg(system).tmg)


@pytest.fixture(scope="module")
def large_graph():
    system = synthetic_soc(800, seed=1)
    ordering = channel_ordering(system)
    return build_event_graph(build_tmg(system, ordering).tmg)


class TestEngineAblation:
    def test_bench_howard_small(self, benchmark, small_graph):
        report = benchmark(analyze, small_graph)
        assert report.cycle_time > 0

    def test_bench_lawler_small(self, benchmark, small_graph):
        value = benchmark(maximum_cycle_ratio_lawler, small_graph)
        assert value > 0

    def test_bench_enumeration_small(self, benchmark, small_graph):
        ratio, __ = benchmark(maximum_cycle_ratio_enumerated, small_graph)
        assert ratio > 0

    def test_bench_howard_large_fraction_reference(self, benchmark, large_graph):
        from tests.tmg.fraction_howard import fraction_maximum_cycle_ratio

        result = benchmark.pedantic(
            fraction_maximum_cycle_ratio, args=(large_graph,),
            rounds=2, iterations=1,
        )
        report = analyze(large_graph)
        assert (result.ratio, result.cycle, result.places) == (
            report.cycle_time, report.critical_cycle, report.critical_places
        )

    def test_bench_howard_large_exact(self, benchmark, large_graph):
        report = benchmark.pedantic(
            analyze, args=(large_graph,), rounds=2, iterations=1,
        )
        assert report.cycle_time > 0


def _selection_problem(n_groups=20, n_choices=8):
    problem = MultiChoiceProblem(maximize=True)
    for g in range(n_groups):
        problem.add_group(
            f"p{g}",
            [
                Choice(f"c{i}", float((g * 7 + i * 3) % 11),
                       {"w": (g + i) % 5})
                for i in range(n_choices)
            ],
        )
    problem.add_constraint("w", "<=", n_groups)
    return problem


class TestIlpAblation:
    def test_bench_branch_bound(self, benchmark):
        problem = _selection_problem()
        solution = benchmark(branch_bound.solve, problem)
        assert problem.is_feasible(solution.selection)

    def test_bench_knapsack_dp(self, benchmark):
        problem = _selection_problem()
        assert knapsack.applicable(problem)
        solution = benchmark(knapsack.solve, problem)
        assert problem.is_feasible(solution.selection)

    @pytest.mark.skipif(not scipy_backend.available(), reason="no scipy")
    def test_bench_scipy_milp(self, benchmark):
        problem = _selection_problem()
        solution = benchmark.pedantic(
            scipy_backend.solve, args=(problem,), rounds=3, iterations=1
        )
        assert problem.is_feasible(solution.selection)

    def test_backends_agree(self):
        problem = _selection_problem()
        a = branch_bound.solve(problem).objective
        b = knapsack.solve(problem).objective
        assert a == b
        if scipy_backend.available():
            assert scipy_backend.solve(problem).objective == a


class TestControlFifoAblation:
    def test_bench_control_fifo_depth(self, benchmark, mpeg2_library):
        """DESIGN.md's CONTROL_FIFO_DEPTH choice: sweep the depth of the
        narrow control channels and measure M1's cycle time.  Depth 0
        (pure rendezvous) couples the datapath through the GOP fan-out;
        the curve flattens once the pipeline is decoupled, which is where
        the default (4) sits."""
        import repro.mpeg2.topology as topo
        from repro.dse import SystemConfiguration
        from repro.model import analyze_system
        from repro.mpeg2 import m1_selection
        from repro.ordering import declaration_ordering

        def sweep():
            curve = {}
            original = topo.CONTROL_FIFO_DEPTH
            try:
                for depth in (0, 1, 2, 4, 8):
                    topo.CONTROL_FIFO_DEPTH = depth
                    system = topo.build_mpeg2_system()
                    config = SystemConfiguration(
                        system, mpeg2_library, m1_selection(mpeg2_library),
                        declaration_ordering(system),
                    )
                    perf = analyze_system(
                        system, config.ordering,
                        process_latencies=config.process_latencies(),
                    )
                    curve[depth] = float(perf.cycle_time)
            finally:
                topo.CONTROL_FIFO_DEPTH = original
            return curve

        curve = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # rendezvous control tokens serialize the pipeline badly...
        assert curve[0] > 1.10 * curve[4]
        # ...and the curve has flattened by the default depth.
        assert curve[4] <= curve[2]
        assert abs(curve[8] - curve[4]) / curve[4] < 0.02
        benchmark.extra_info.update(
            {f"ct_depth_{d}": v for d, v in curve.items()}
        )
        print("\ncontrol-FIFO depth -> M1 cycle time (KCycles):")
        for depth, ct in curve.items():
            print(f"  depth {depth}: {ct / 1000:.0f}")


class TestOrderingAblation:
    def test_bench_algorithm1_mpeg2_scale(self, benchmark):
        """Algorithm 1 on a system of the MPEG-2's size (O(E log E))."""
        system = synthetic_soc(26, n_channels=60, seed=0)
        ordering = benchmark(channel_ordering, system)
        ordering.validate(system)

    def test_bench_annealing_baseline(self, benchmark):
        """Simulated annealing at the same scale: hundreds of full TMG
        analyses to (maybe) improve on the constructive heuristic — the
        cost/quality trade that justifies Algorithm 1."""
        from repro.model import analyze_system
        from repro.ordering import anneal_ordering

        system = synthetic_soc(26, n_channels=60, seed=0)
        constructive = analyze_system(
            system, channel_ordering(system)
        ).cycle_time
        result = benchmark.pedantic(
            anneal_ordering, args=(system,),
            kwargs={"iterations": 200, "seed": 0}, rounds=1, iterations=1,
        )
        assert result.cycle_time <= constructive
        benchmark.extra_info.update(
            {
                "constructive_ct": float(constructive),
                "annealed_ct": float(result.cycle_time),
                "gain_pct": round(
                    100 * (1 - float(result.cycle_time) / float(constructive)),
                    3,
                ),
                "analyses": result.evaluations,
            }
        )
