"""Agreement between the buffered simulator and the buffered TMG model.

Extends the headline simulation==analysis property to FIFO channels: for
random systems with random capacities, the DES and the split-transition
TMG must agree on steady-state throughput, and deeper FIFOs must never
slow the system down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemGraph, pipeline
from repro.core.system import Channel
from repro.model import analyze_system
from repro.sim import simulate
from tests.strategies import layered_systems


def _with_capacities(system: SystemGraph, capacities) -> SystemGraph:
    clone = system.copy()
    for name, capacity in capacities.items():
        channel = clone.channel(name)
        clone._channels[name] = Channel(
            channel.name, channel.producer, channel.consumer,
            latency=channel.latency,
            capacity=max(capacity, channel.initial_tokens),
            initial_tokens=channel.initial_tokens,
        )
    return clone


class TestBufferedPipeline:
    def test_fifo_pipeline_matches_analysis(self):
        system = _with_capacities(
            pipeline(3, process_latency=5, channel_latency=2),
            {f"c{i}": 2 for i in range(4)},
        )
        predicted = analyze_system(system).cycle_time
        result = simulate(system, iterations=80)
        assert result.measured_cycle_time("snk") == predicted

    def test_fifo_faster_than_rendezvous(self):
        rendezvous = pipeline(3, process_latency=5, channel_latency=2)
        buffered = _with_capacities(
            rendezvous, {f"c{i}": 4 for i in range(4)}
        )
        ct_r = simulate(rendezvous, iterations=60).measured_cycle_time("snk")
        ct_b = simulate(buffered, iterations=60).measured_cycle_time("snk")
        assert ct_b <= ct_r


@settings(max_examples=30, deadline=None)
@given(system=layered_systems(), depth=st.integers(1, 4))
def test_buffered_simulation_matches_analysis(system, depth):
    buffered = _with_capacities(
        system, {c.name: depth for c in system.channels}
    )
    predicted = analyze_system(buffered).cycle_time
    result = simulate(buffered, iterations=60)
    watch = system.sinks()[0].name
    measured = result.measured_cycle_time(watch)
    if predicted == 0:
        return
    assert measured is not None
    assert abs(float(measured) - float(predicted)) <= float(predicted) * 0.12


@settings(max_examples=25, deadline=None)
@given(system=layered_systems(), shallow=st.integers(1, 2),
       extra=st.integers(1, 3))
def test_capacity_monotone_in_analysis(system, shallow, extra):
    """Deeper FIFOs never increase the analytic cycle time."""
    small = _with_capacities(
        system, {c.name: shallow for c in system.channels}
    )
    big = _with_capacities(
        system, {c.name: shallow + extra for c in system.channels}
    )
    assert analyze_system(big).cycle_time <= analyze_system(small).cycle_time
