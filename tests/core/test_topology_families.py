"""Ring and mesh topology generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mesh_soc, ring_soc, validate_system
from repro.model import analyze_system, deadlock_cycle
from repro.ordering import channel_ordering
from repro.sim import simulate


class TestRing:
    def test_shape(self):
        system = ring_soc(4)
        assert len(system.workers()) == 4
        assert system.channel("close").initial_tokens == 1
        validate_system(system)

    def test_live_and_analyzable(self):
        system = ring_soc(3, process_latency=5, channel_latency=2)
        assert deadlock_cycle(system) is None
        perf = analyze_system(system)
        # one token around the whole ring: cycle time = ring delay sum
        assert perf.cycle_time >= 3 * 5

    def test_more_tokens_faster(self):
        slow = analyze_system(ring_soc(4, initial_tokens=1)).cycle_time
        fast = analyze_system(ring_soc(4, initial_tokens=3)).cycle_time
        assert fast < slow

    def test_simulation_agrees(self):
        system = ring_soc(3)
        perf = analyze_system(system)
        result = simulate(system, iterations=60)
        measured = result.measured_cycle_time("snk")
        assert abs(float(measured) - float(perf.cycle_time)) \
            <= float(perf.cycle_time) * 0.12

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ring_soc(1)
        with pytest.raises(ValueError):
            ring_soc(3, initial_tokens=0)


class TestMesh:
    @settings(max_examples=12, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4))
    def test_always_valid(self, rows, cols):
        if rows * cols < 2:
            return
        validate_system(mesh_soc(rows, cols))

    def test_shape(self):
        system = mesh_soc(3, 4)
        assert len(system.workers()) == 12
        # east channels: 3 rows x 3, south channels: 2 x 4, + inject/drain
        assert len(system.channels) == 9 + 8 + 2

    def test_reconvergence_orderable(self):
        system = mesh_soc(3, 3, process_latency=6, channel_latency=2)
        ordering = channel_ordering(system)
        assert deadlock_cycle(system, ordering) is None
        perf = analyze_system(system, ordering)
        assert perf.cycle_time > 0

    def test_mesh_simulation_agrees(self):
        system = mesh_soc(2, 3)
        ordering = channel_ordering(system)
        perf = analyze_system(system, ordering)
        result = simulate(system, ordering, iterations=50)
        measured = result.measured_cycle_time("snk")
        assert abs(float(measured) - float(perf.cycle_time)) \
            <= float(perf.cycle_time) * 0.12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            mesh_soc(1, 1)
        with pytest.raises(ValueError):
            mesh_soc(0, 3)
