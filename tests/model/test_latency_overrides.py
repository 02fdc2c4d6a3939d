"""Latency overrides are resolved and validated in one place.

``effective_latencies`` rejects an override naming no process, or below
zero, with one message whichever analysis path it reaches: the uncached
``analyze_system``, the cached ``PerformanceEngine`` (cold and warm), and
``build_tmg`` of the all-FIFO (non-blocking) model.  A misspelled name used to be dropped silently,
returning the default cycle time.
"""

import pytest

from repro.errors import ValidationError
from repro.model import analyze_system, build_tmg
from repro.ordering import channel_ordering
from repro.perf import PerformanceEngine

BAD_OVERRIDES = [
    ({"Typo": 5}, "unknown process 'Typo'"),
    ({"P2": -1}, "'P2' must be >= 0, got -1"),
]


@pytest.fixture
def optimal(motivating):
    return channel_ordering(motivating)


@pytest.mark.parametrize("overrides, message", BAD_OVERRIDES)
def test_uncached_path_rejects(motivating, optimal, overrides, message):
    with pytest.raises(ValidationError, match=message):
        analyze_system(motivating, optimal, process_latencies=overrides)
    with pytest.raises(ValidationError, match=message):
        build_tmg(motivating, optimal, process_latencies=overrides)


@pytest.mark.parametrize("overrides, message", BAD_OVERRIDES)
def test_cached_path_rejects(motivating, optimal, overrides, message):
    engine = PerformanceEngine()
    with pytest.raises(ValidationError, match=message):
        engine.analyze(motivating, optimal, process_latencies=overrides)
    # Warm structure cache: the override is still checked, not served.
    assert engine.analyze(motivating, optimal).cycle_time == 12
    with pytest.raises(ValidationError, match=message):
        engine.analyze(motivating, optimal, process_latencies=overrides)


@pytest.mark.parametrize("overrides, message", BAD_OVERRIDES)
def test_nonblocking_builder_rejects(motivating, optimal, overrides, message):
    fifo = motivating.with_channel_capacities(
        {channel.name: max(1, channel.capacity) for channel in motivating.channels}
    )
    with pytest.raises(ValidationError, match=message):
        build_tmg(fifo, optimal, process_latencies=overrides)
