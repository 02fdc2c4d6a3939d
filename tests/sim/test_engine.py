"""Engine-level simulator tests: timing, payloads, deadlock diagnosis."""

import pytest

import repro.sim.engine as engine
from repro.core import SystemBuilder, pipeline
from repro.errors import SimulationDeadlock, SimulationError
from repro.model import analyze_system
from repro.obs import MemorySink
from repro.sim import Simulator, simulate


class TestTimingAgainstPaper:
    def test_suboptimal_measures_20(self, motivating, suboptimal_ordering):
        result = simulate(motivating, suboptimal_ordering, iterations=100)
        assert result.measured_cycle_time("Psnk") == 20

    def test_optimal_measures_12(self, motivating, optimal_ordering):
        result = simulate(motivating, optimal_ordering, iterations=100)
        assert result.measured_cycle_time("Psnk") == 12

    def test_deadlock_raises_with_wait_cycle(self, motivating,
                                             deadlock_ordering):
        with pytest.raises(SimulationDeadlock) as excinfo:
            simulate(motivating, deadlock_ordering, iterations=10)
        assert set(excinfo.value.cycle) == {"P2", "P6", "P5"}

    def test_feedback_system(self, feedback_system):
        result = simulate(feedback_system, iterations=80)
        predicted = analyze_system(feedback_system).cycle_time
        assert result.measured_cycle_time("snk") == predicted


class TestPayloads:
    def test_functional_pipeline(self):
        system = pipeline(2)
        behaviors = {
            "src": lambda k, ins: {"c0": k},
            "stage0": lambda k, ins: {"c1": ins["c0"] * 10},
            "stage1": lambda k, ins: {"c2": ins["c1"] + 1},
        }
        result = simulate(system, behaviors=behaviors, iterations=5)
        assert result.sink_payloads["snk"] == [1, 11, 21, 31, 41]

    def test_stateful_behavior(self):
        system = pipeline(1)
        total = {"sum": 0}

        def accumulate(k, ins):
            total["sum"] += ins["c0"]
            return {"c1": total["sum"]}

        behaviors = {"src": lambda k, ins: {"c0": k + 1},
                     "stage0": accumulate}
        result = simulate(system, behaviors=behaviors, iterations=4)
        assert result.sink_payloads["snk"] == [1, 3, 6, 10]

    def test_preloaded_payload_consumed_first(self, feedback_system):
        seen = []

        def record_a(k, ins):
            seen.append(ins["y"])
            return {"x": f"A{k}"}

        behaviors = {
            "A": record_a,
            "B": lambda k, ins: {"y": f"B{k}", "o": ins["x"]},
        }
        simulate(
            feedback_system,
            behaviors=behaviors,
            iterations=3,
            initial_payloads={"y": ("boot",)},
        )
        assert seen[0] == "boot"
        assert seen[1] == "B0"


class TestEngineMechanics:
    def test_iteration_counts(self, tiny_pipeline):
        result = simulate(tiny_pipeline, iterations=7)
        assert result.iterations["snk"] == 7
        # Upstream processes may run at most a couple of iterations ahead.
        assert result.iterations["A"] >= 7

    def test_invalid_iterations(self, tiny_pipeline):
        with pytest.raises(SimulationError):
            simulate(tiny_pipeline, iterations=0)

    def test_unknown_watch_rejected(self, tiny_pipeline):
        with pytest.raises(SimulationError):
            Simulator(tiny_pipeline).run(iterations=1, watch="ghost")

    def test_trace_recording(self, tiny_pipeline):
        sink = MemorySink()
        Simulator(tiny_pipeline, sinks=[sink]).run(iterations=2)
        kinds = {event.kind for event in sink.events()}
        assert "compute" in kinds
        assert "put" in kinds or "get" in kinds

    def test_trace_disabled_by_default(self, tiny_pipeline, monkeypatch):
        emitted = []
        monkeypatch.setattr(engine, "_emit", lambda *args: emitted.append(args))
        simulate(tiny_pipeline, iterations=2)
        assert emitted == []

    def test_channel_transfer_counts(self, tiny_pipeline):
        result = simulate(tiny_pipeline, iterations=5)
        assert result.channel_transfers["x"] >= 5

    def test_stall_accounting(self, motivating, suboptimal_ordering):
        result = simulate(motivating, suboptimal_ordering, iterations=50)
        # Cycle time 20 with P2 busy only 5 cycles per iteration: most of
        # its time is stalled.
        assert result.stall_cycles["P2"] > 0
        assert 0 < result.compute_cycles["P2"] / result.times["P2"] < 0.5

    def test_stall_plus_compute_bounded_by_time(self, motivating,
                                                suboptimal_ordering):
        result = simulate(motivating, suboptimal_ordering, iterations=50)
        for name, time in result.times.items():
            assert result.compute_cycles[name] + result.stall_cycles[name] \
                <= time


class TestCustomLatencies:
    def test_latency_override_affects_measurement(self, tiny_pipeline):
        slow = Simulator(
            tiny_pipeline, process_latencies={"A": 30}
        ).run(iterations=40)
        assert slow.measured_cycle_time("snk") >= 30

    def test_override_matches_analysis(self, motivating, optimal_ordering):
        overrides = {"P2": 11}
        result = Simulator(
            motivating, optimal_ordering, process_latencies=overrides
        ).run(iterations=60)
        predicted = analyze_system(
            motivating, optimal_ordering, process_latencies=overrides
        ).cycle_time
        assert result.measured_cycle_time("Psnk") == predicted
