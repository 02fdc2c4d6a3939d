"""Bus-width optimization."""

import pytest

from repro.core import SystemBuilder
from repro.errors import ValidationError
from repro.hls import optimize_widths
from repro.model import analyze_system


@pytest.fixture()
def streaming_system():
    """A pipeline whose channels carry real data volumes."""
    return (
        SystemBuilder("stream")
        .source("src", latency=1)
        .process("A", latency=20)
        .process("B", latency=20)
        .sink("snk", latency=1)
        .channel("i", "src", "A", latency=32)   # 256 elements @ 8/cycle
        .channel("x", "A", "B", latency=32)
        .channel("o", "B", "snk", latency=32)
        .build()
    )


VOLUMES = {"i": 256, "x": 256, "o": 256}


class TestOptimizeWidths:
    def test_meets_reachable_target(self, streaming_system):
        result = optimize_widths(
            streaming_system, VOLUMES, target_cycle_time=80
        )
        assert result.feasible
        assert result.cycle_time <= 80

    def test_narrowest_when_target_loose(self, streaming_system):
        loose = optimize_widths(
            streaming_system, VOLUMES, target_cycle_time=10_000
        )
        assert loose.feasible
        assert all(width == 8 for width in loose.widths.values())
        assert loose.wire_area == 3 * 8

    def test_tighter_target_costs_wires(self, streaming_system):
        loose = optimize_widths(streaming_system, VOLUMES, 200)
        tight = optimize_widths(streaming_system, VOLUMES, 70)
        assert loose.feasible and tight.feasible
        assert tight.wire_area > loose.wire_area

    def test_compute_bound_floor_infeasible(self, streaming_system):
        # Even 64-wide buses cannot beat the 20-cycle computes plus the
        # serial chain.
        result = optimize_widths(
            streaming_system, VOLUMES, target_cycle_time=5
        )
        assert not result.feasible
        assert result.cycle_time > 5

    def test_latencies_consistent_with_widths(self, streaming_system):
        result = optimize_widths(streaming_system, VOLUMES, 80)
        for name, width in result.widths.items():
            assert result.latencies[name] == -(-VOLUMES[name] // width)

    def test_achieved_matches_direct_analysis(self, streaming_system):
        from repro.hls.bus import _apply_widths

        result = optimize_widths(streaming_system, VOLUMES, 80)
        sized = _apply_widths(streaming_system, VOLUMES, result.widths)
        assert analyze_system(sized).cycle_time == result.cycle_time

    def test_unknown_channel_rejected(self, streaming_system):
        with pytest.raises(ValidationError):
            optimize_widths(streaming_system, {"ghost": 10}, 100)

    def test_empty_volumes_rejected(self, streaming_system):
        with pytest.raises(ValidationError):
            optimize_widths(streaming_system, {}, 100)
