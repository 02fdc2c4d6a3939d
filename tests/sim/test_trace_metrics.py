"""Trace formatting and metrics helpers."""

from fractions import Fraction

from repro.core import pipeline
from repro.obs import MemorySink
from repro.sim import SimulationResult, Simulator
from repro.sim.metrics import agreement_error, throughput
from repro.sim.trace import format_trace


def _traced_run(iterations=3):
    sink = MemorySink()
    Simulator(pipeline(2), sinks=[sink]).run(iterations=iterations)
    return sink.events()


class TestTraceFormatting:
    def test_format_contains_events(self):
        text = format_trace(_traced_run())
        assert "compute" in text
        assert "iter" in text

    def test_format_limit(self):
        text = format_trace(_traced_run(), limit=3)
        lines = text.splitlines()
        assert len(lines) == 4  # 3 events + truncation marker
        assert lines[-1].startswith("...")

    def test_trace_sorted_by_time(self):
        times = [event.time for event in _traced_run()]
        assert times == sorted(times)

    def test_block_events_recorded(self):
        kinds = {event.kind for event in _traced_run()}
        assert kinds & {"block-put", "block-get"}


class TestMetrics:
    def test_throughput_reciprocal(self):
        result = Simulator(pipeline(2)).run(iterations=40)
        period = result.measured_cycle_time("snk")
        assert throughput(result, "snk") == 1 / Fraction(period)

    def test_throughput_none_for_short_run(self):
        result = Simulator(pipeline(2)).run(iterations=2)
        assert throughput(result, "snk") is None

    def test_agreement_error_none_cases(self):
        result = Simulator(pipeline(2)).run(iterations=2)
        assert agreement_error(result, "snk", 10) is None
        full = Simulator(pipeline(2)).run(iterations=40)
        assert agreement_error(full, "snk", 0) is None

    def test_utilization_bounds(self):
        """Each process's compute and stall cycles are fractions of its
        own active window (its last event time)."""
        result = Simulator(pipeline(3)).run(iterations=30)
        for name, time in result.times.items():
            assert time > 0
            assert 0.0 <= result.compute_cycles[name] / time <= 1.0
            assert 0.0 <= result.stall_cycles[name] / time <= 1.0

    def test_measured_cycle_time_requires_history(self):
        stats = SimulationResult(
            iterations={"p": 1}, times={"p": 5},
            completion_times={"p": [5]}, compute_cycles={"p": 5},
            stall_cycles={"p": 0}, channel_transfers={},
        )
        assert stats.measured_cycle_time("p") is None
        assert stats.measured_cycle_time("ghost") is None
