"""Latency overrides are validated, and vector clocks never wrap silently.

Both front ends share one latency table, so both reject what
:meth:`SystemGraph.with_process_latencies` rejects: unknown process names
and negative latencies.  The batch engine's int64 clocks are guarded by
an exact per-lane bound; only :class:`Simulator` (Python ints) may run
configurations beyond it.
"""

import pytest

from repro.errors import ReproError, SimulationError
from repro.sim import BatchLane, BatchSimulator, Simulator


class TestLatencyOverrides:
    def test_simulator_rejects_unknown_process(self, motivating):
        with pytest.raises(SimulationError, match="unknown process.*'Pz'"):
            Simulator(motivating, process_latencies={"Pz": 3})

    def test_simulator_rejects_negative_latency(self, motivating):
        with pytest.raises(SimulationError, match="'P2': latency must be >= 0"):
            Simulator(motivating, process_latencies={"P2": -5})

    def test_batch_rejects_unknown_process(self, motivating):
        lanes = [BatchLane(), BatchLane(process_latencies={"Pz": 3})]
        with pytest.raises(SimulationError, match="lane 1: .*unknown process"):
            BatchSimulator(motivating, lanes=lanes).run(iterations=5)

    def test_batch_rejects_negative_latency(self, motivating):
        lanes = [BatchLane(), BatchLane(process_latencies={"P2": -5})]
        with pytest.raises(SimulationError, match="lane 1: .*must be >= 0"):
            BatchSimulator(motivating, lanes=lanes).run(iterations=5)

    def test_zero_latency_is_allowed(self, motivating):
        scalar = Simulator(motivating, process_latencies={"P2": 0}).run(
            iterations=10
        )
        (lane,) = BatchSimulator(
            motivating, lanes=[BatchLane(process_latencies={"P2": 0})]
        ).run(iterations=10)
        assert lane == scalar


class TestInt64Bound:
    def test_wrapping_lane_raises_instead_of_lying(self, motivating):
        lanes = [BatchLane(), BatchLane(process_latencies={"P2": 2**61})]
        with pytest.raises(SimulationError, match="lane 1: .*int64"):
            BatchSimulator(motivating, lanes=lanes).run()

    def test_unrepresentable_latency_is_a_simulation_error(self, motivating):
        lanes = [BatchLane(process_latencies={"P2": 2**70})]
        with pytest.raises(SimulationError, match="int64") as excinfo:
            BatchSimulator(motivating, lanes=lanes).run()
        assert isinstance(excinfo.value, ReproError)

    def test_scalar_clocks_stay_exact(self, motivating):
        result = Simulator(motivating, process_latencies={"P2": 2**61}).run()
        assert result.times["Psnk"] > 2**63
        # P2's compute dominates the steady-state period.
        assert result.measured_cycle_time("Psnk") > 2**61

    def test_large_in_range_lanes_match_scalar(self, motivating):
        overrides = {"P2": 2**40}
        (lane,) = BatchSimulator(
            motivating, lanes=[BatchLane(process_latencies=overrides)]
        ).run()
        assert lane == Simulator(motivating, process_latencies=overrides).run()
