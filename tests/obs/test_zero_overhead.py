"""Attaching observability must never change simulation results.

The acceptance bar for the tracing layer: results with a sink attached
(or a metrics registry) are bit-identical to a bare run.  ``SimulationResult`` is a plain dataclass, so ``==`` compares
every field — including completion-time series and stall breakdowns.
"""

from dataclasses import fields

from hypothesis import given, settings

import repro.sim.engine as engine
from repro.core import motivating_example
from repro.obs import MemorySink, NullSink, RingBufferSink, collect
from repro.sim import SimulationResult, Simulator
from tests.strategies import layered_systems


def _run(system, **kwargs):
    return Simulator(system, **kwargs).run(iterations=25)


class TestBitIdentical:
    def test_null_sink(self):
        system = motivating_example()
        assert _run(system) == _run(system, sinks=[NullSink()])

    def test_memory_and_ring_sinks(self):
        system = motivating_example()
        bare = _run(system)
        assert bare == _run(system, sinks=[MemorySink()])
        assert bare == _run(system, sinks=[RingBufferSink(capacity=8)])

    def test_metrics_registry(self):
        system = motivating_example()
        bare = _run(system)
        with collect():
            assert _run(system) == bare

    def test_traced_run_equals_bare(self):
        system = motivating_example()
        sink = MemorySink()
        assert _run(system, sinks=[sink]) == _run(system)
        assert len(sink)  # recording actually happened

    @given(system=layered_systems())
    @settings(max_examples=20, deadline=None)
    def test_property_any_system(self, system):
        from repro.ordering import channel_ordering

        ordering = channel_ordering(system)  # guaranteed live
        bare = _run(system, ordering=ordering)
        with collect():
            observed = _run(system, ordering=ordering, sinks=[NullSink()])
        assert bare == observed


class TestRecorderInertWhenOff:
    def test_no_trace_kept_without_sinks(self, monkeypatch):
        emitted = []
        monkeypatch.setattr(engine, "_emit", lambda *args: emitted.append(args))
        _run(motivating_example())
        assert emitted == []

    def test_sinks_do_not_populate_result_trace(self):
        sink = MemorySink()
        _run(motivating_example(), sinks=[sink])
        assert sink.events()  # the sink is the only trace channel
        assert "trace" not in {f.name for f in fields(SimulationResult)}
