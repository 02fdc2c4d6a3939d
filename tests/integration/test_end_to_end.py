"""Cross-module integration: the full methodology on one system."""

from fractions import Fraction

import pytest

from repro.core import synthetic_soc
from repro.dse import SystemConfiguration, explore
from repro.hls import ImplementationLibrary, synthesize_pareto_set
from repro.model import analyze_system, deadlock_cycle
from repro.ordering import channel_ordering, conservative_ordering
from repro.sim import simulate


@pytest.fixture(scope="module")
def soc():
    return synthetic_soc(30, seed=11)


@pytest.fixture(scope="module")
def library(soc):
    return ImplementationLibrary(
        synthesize_pareto_set(
            p.name,
            base_latency=p.latency * 6,
            base_area=40.0 * p.latency,
            seed=11,
            max_points=5,
        )
        for p in soc.workers()
    )


class TestFullFlow:
    def test_order_analyze_simulate_agree(self, soc):
        ordering = channel_ordering(soc)
        predicted = analyze_system(soc, ordering).cycle_time
        result = simulate(soc, ordering, iterations=50)
        measured = result.measured_cycle_time("Psnk")
        assert abs(float(measured) - float(predicted)) <= \
            float(predicted) * 0.1

    def test_explore_then_verify_by_simulation(self, soc, library):
        config = SystemConfiguration.initial(
            soc, library, ordering=conservative_ordering(soc),
            pick="smallest",
        )
        start_ct = analyze_system(
            soc, config.ordering,
            process_latencies=config.process_latencies(),
        ).cycle_time
        target = int(start_ct * 0.6)
        result = explore(config, target_cycle_time=target)
        final = result.final
        # simulate the final configuration and confirm the analytic claim
        sim = simulate(
            soc,
            final.ordering,
            iterations=40,
            process_latencies=final.process_latencies(),
        )
        measured = sim.measured_cycle_time("Psnk")
        assert abs(float(measured) - float(result.final_record.cycle_time)) \
            <= float(result.final_record.cycle_time) * 0.1

    def test_exploration_monotone_benefit(self, soc, library):
        """The returned configuration is never worse than the start on the
        targeted objective."""
        config = SystemConfiguration.initial(
            soc, library, ordering=conservative_ordering(soc),
            pick="smallest",
        )
        start = analyze_system(
            soc, config.ordering,
            process_latencies=config.process_latencies(),
        ).cycle_time
        result = explore(config, target_cycle_time=int(start * 0.7))
        assert result.final_record.cycle_time <= start

    def test_ordering_stays_live_through_exploration(self, soc, library):
        config = SystemConfiguration.initial(
            soc, library, ordering=conservative_ordering(soc),
            pick="smallest",
        )
        result = explore(config, target_cycle_time=1)
        assert deadlock_cycle(soc, result.final.ordering) is None

    def test_throughput_is_reciprocal_cycle_time(self, soc):
        ordering = channel_ordering(soc)
        perf = analyze_system(soc, ordering)
        assert perf.throughput == 1 / Fraction(perf.cycle_time)
