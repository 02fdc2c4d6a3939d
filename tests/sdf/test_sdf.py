"""SDF graphs: repetition vectors, HSDF expansion, throughput."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.model import analyze_system
from repro.sdf import SdfGraph, sdf_to_system
from repro.model import build_tmg
from tests.tmg.firing_reference import measured_cycle_time


def rate_pair_graph():
    """The textbook two-actor example: a --(2,3)--> b."""
    graph = SdfGraph("pair")
    graph.add_actor("a", execution_time=1)
    graph.add_actor("b", execution_time=1)
    graph.add_edge("e", "a", "b", production=2, consumption=3)
    return graph


class TestRepetitionVector:
    def test_textbook_pair(self):
        assert rate_pair_graph().repetition_vector() == {"a": 3, "b": 2}

    def test_homogeneous_graph(self):
        graph = SdfGraph()
        graph.add_actor("x")
        graph.add_actor("y")
        graph.add_edge("e", "x", "y")
        assert graph.repetition_vector() == {"x": 1, "y": 1}

    def test_three_actor_chain(self):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_actor("c")
        graph.add_edge("e1", "a", "b", production=3, consumption=2)
        graph.add_edge("e2", "b", "c", production=1, consumption=3)
        # a:2, b:3, c:1 balances both edges (6 tokens, 3 tokens).
        assert graph.repetition_vector() == {"a": 2, "b": 3, "c": 1}

    def test_inconsistent_cycle_detected(self):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("e1", "a", "b", production=2, consumption=1)
        graph.add_edge("e2", "b", "a", production=1, consumption=1)
        assert not graph.is_consistent()
        with pytest.raises(ValidationError, match="inconsistent"):
            graph.repetition_vector()

    def test_disconnected_components_each_minimal(self):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_actor("lonely")
        graph.add_edge("e", "a", "b", production=2, consumption=4)
        vector = graph.repetition_vector()
        assert vector["a"] == 2 and vector["b"] == 1
        assert vector["lonely"] >= 1

    def test_firings_per_iteration(self):
        assert rate_pair_graph().firings_per_iteration() == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError):
            SdfGraph().repetition_vector()

    def test_cd_to_dat_canonical_vector(self):
        """The literature's CD (44.1 kHz) -> DAT (48 kHz) sample-rate
        converter: the canonical repetition vector (147, 147, 98, 28, 32,
        160)."""
        graph = SdfGraph("cd2dat")
        for name in ("cd", "s1", "s2", "s3", "s4", "dat"):
            graph.add_actor(name)
        graph.add_edge("e1", "cd", "s1", production=1, consumption=1)
        graph.add_edge("e2", "s1", "s2", production=2, consumption=3)
        graph.add_edge("e3", "s2", "s3", production=2, consumption=7)
        graph.add_edge("e4", "s3", "s4", production=8, consumption=7)
        graph.add_edge("e5", "s4", "dat", production=5, consumption=1)
        assert graph.repetition_vector() == {
            "cd": 147, "s1": 147, "s2": 98, "s3": 28, "s4": 32, "dat": 160,
        }

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 6), c=st.integers(1, 6))
    def test_balance_property(self, p, c):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("e", "a", "b", production=p, consumption=c)
        vector = graph.repetition_vector()
        assert p * vector["a"] == c * vector["b"]
        from math import gcd

        assert gcd(vector["a"], vector["b"]) == 1


class TestExpansion:
    def test_instance_counts(self):
        compiled = sdf_to_system(rate_pair_graph())
        assert compiled.instances_of("a") == ("a#0", "a#1", "a#2")
        assert compiled.instances_of("b") == ("b#0", "b#1")
        assert len(compiled.system.processes) == 5

    def test_single_instance_keeps_actor_name(self):
        graph = SdfGraph()
        graph.add_actor("x")
        graph.add_actor("y")
        graph.add_edge("e", "x", "y")
        compiled = sdf_to_system(graph)
        assert compiled.instances_of("x") == ("x",)

    def test_dependency_tokens(self):
        """a fires 3x producing 2 tokens each; b#0 pops tokens 0..2 (needs
        a#0, a#1), b#1 pops 3..5 (needs a#1, a#2) — all same-iteration."""
        compiled = sdf_to_system(rate_pair_graph())
        system = compiled.system
        pairs = {
            (c.producer, c.consumer): c.initial_tokens
            for c in system.channels
            if not c.name.startswith("__serial")
        }
        assert pairs == {
            ("a#0", "b#0"): 0,
            ("a#1", "b#0"): 0,
            ("a#1", "b#1"): 0,
            ("a#2", "b#1"): 0,
        }

    def test_delay_shifts_iterations(self):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("e", "a", "b", delay=1)  # rates 1:1, one token ahead
        compiled = sdf_to_system(graph)
        (channel,) = [
            c for c in compiled.system.channels
            if not c.name.startswith("__serial")
        ]
        assert channel.initial_tokens == 1

    def test_serialization_chain(self):
        compiled = sdf_to_system(rate_pair_graph())
        serial = [
            c for c in compiled.system.channels
            if c.name.startswith("__serial")
        ]
        # a: 3 instances -> 3 chain edges; b: 2 instances -> 2 edges.
        assert len(serial) == 5
        loopbacks = [c for c in serial if c.initial_tokens == 1]
        assert len(loopbacks) == 2  # one circulating token per actor

    def test_underdelayed_self_loop_rejected(self):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_edge("e", "a", "a", production=2, consumption=2, delay=1)
        with pytest.raises(ValidationError, match="self-loop"):
            sdf_to_system(graph)

    def test_sufficient_self_loop_dropped(self):
        graph = SdfGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("io", "a", "b")
        graph.add_edge("state", "a", "a", delay=1)
        compiled = sdf_to_system(graph)
        assert all("state" not in c.name for c in compiled.system.channels)


@st.composite
def consistent_sdf_chains(draw):
    """Random consistent SDF chains with small rates (bounded expansion)."""
    graph = SdfGraph("hyp")
    n_actors = draw(st.integers(2, 4))
    for i in range(n_actors):
        graph.add_actor(f"a{i}", execution_time=draw(st.integers(1, 8)))
    for i in range(n_actors - 1):
        graph.add_edge(
            f"e{i}", f"a{i}", f"a{i + 1}",
            production=draw(st.integers(1, 3)),
            consumption=draw(st.integers(1, 3)),
            delay=draw(st.integers(0, 2)),
            latency=draw(st.integers(1, 3)),
        )
    return graph


class TestExpansionProperties:
    @settings(max_examples=30, deadline=None)
    @given(graph=consistent_sdf_chains())
    def test_expansion_always_analyzable(self, graph):
        compiled = sdf_to_system(graph)
        vector = graph.repetition_vector()
        assert len(compiled.system.processes) == sum(vector.values())
        perf = analyze_system(compiled.system, compiled.ordering)
        assert perf.cycle_time > 0

    @settings(max_examples=20, deadline=None)
    @given(graph=consistent_sdf_chains())
    def test_iteration_period_covers_serial_work(self, graph):
        """One iteration must last at least every actor's total serial
        compute (its q firings on one hardware unit)."""
        compiled = sdf_to_system(graph)
        vector = graph.repetition_vector()
        period = analyze_system(compiled.system, compiled.ordering).cycle_time
        for actor in graph.actors:
            assert period >= vector[actor.name] * actor.execution_time

    @settings(max_examples=15, deadline=None)
    @given(graph=consistent_sdf_chains())
    def test_execution_matches_analysis(self, graph):
        compiled = sdf_to_system(graph)
        perf = analyze_system(compiled.system, compiled.ordering)
        model = build_tmg(compiled.system, compiled.ordering)
        measured = measured_cycle_time(model.tmg, iterations=100)
        if measured is None or perf.cycle_time == 0:
            return
        assert abs(float(measured) - float(perf.cycle_time)) <= \
            float(perf.cycle_time) * 0.12

    def test_reconvergent_expansion_needs_the_shipped_ordering(self):
        """A reconvergent multirate expansion whose declaration order
        deadlocks — the paper's Section 2 problem resurfacing at the
        instance level — while the compilation's Algorithm-1 ordering
        stays live."""
        from repro.errors import DeadlockError
        from repro.model import deadlock_cycle

        graph = SdfGraph("reconv")
        graph.add_actor("a0", execution_time=8)
        graph.add_actor("a1", execution_time=2)
        graph.add_actor("a2", execution_time=3)
        graph.add_edge("e0", "a0", "a1", production=3, consumption=4,
                       delay=0, latency=3)
        graph.add_edge("e1", "a1", "a2", production=4, consumption=4,
                       delay=3, latency=1)
        graph.add_edge("skip", "a0", "a2", production=3, consumption=4,
                       delay=0, latency=1)
        compiled = sdf_to_system(graph)
        assert deadlock_cycle(compiled.system) is not None  # declaration order
        assert deadlock_cycle(compiled.system, compiled.ordering) is None
        perf = analyze_system(compiled.system, compiled.ordering)
        assert perf.cycle_time > 0


class TestThroughput:
    def test_homogeneous_chain_matches_plain_system(self):
        graph = SdfGraph()
        graph.add_actor("x", execution_time=4)
        graph.add_actor("y", execution_time=2)
        graph.add_edge("e", "x", "y", latency=2)
        compiled = sdf_to_system(graph)
        perf = analyze_system(compiled.system)
        # x's serial cycle: exec 4 + channel 2 = 6 bounds the rate.
        assert perf.cycle_time == 6

    def test_multirate_iteration_period(self):
        """With serialization, one graph iteration runs a 3 times (exec 2)
        and b 2 times (exec 1): the analytic period must cover the serial
        a-chain: 3 firings x (exec + sync)."""
        graph = SdfGraph("mr")
        graph.add_actor("a", execution_time=2)
        graph.add_actor("b", execution_time=1)
        graph.add_edge("e", "a", "b", production=2, consumption=3)
        compiled = sdf_to_system(graph)
        perf = analyze_system(compiled.system)
        assert perf.cycle_time >= 3 * 2  # at least the serial a work

    def test_analysis_matches_timed_execution(self):
        compiled = sdf_to_system(rate_pair_graph())
        perf = analyze_system(compiled.system)
        model = build_tmg(compiled.system)
        measured = measured_cycle_time(model.tmg, iterations=120)
        assert measured is not None
        assert abs(float(measured) - float(perf.cycle_time)) <= \
            float(perf.cycle_time) * 0.1

    def test_delay_tokens_pipeline_iterations(self):
        """Extra initial delay on the edge decouples producer and consumer
        iterations: throughput can only improve."""
        def build(delay):
            graph = SdfGraph()
            graph.add_actor("a", execution_time=5)
            graph.add_actor("b", execution_time=5)
            graph.add_edge("e", "a", "b", delay=delay, latency=2)
            return sdf_to_system(graph).system

        tight = analyze_system(build(0)).cycle_time
        slack = analyze_system(build(2)).cycle_time
        assert slack <= tight
