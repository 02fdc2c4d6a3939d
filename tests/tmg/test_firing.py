"""Timed execution (earliest firing) versus analytic cycle time."""

from fractions import Fraction

import pytest

from repro.errors import ReproError
from repro.tmg import analyze
from repro.tmg.graph import TimedMarkedGraph
from tests.tmg.firing_reference import (
    earliest_firing_times,
    measured_cycle_time,
)


def ring(delays=(2, 3, 1), tokens=(1, 0, 0)):
    tmg = TimedMarkedGraph()
    for i, d in enumerate(delays):
        tmg.add_transition(f"t{i}", delay=d)
    for i in range(len(delays)):
        tmg.add_place(f"p{i}", f"t{i}", f"t{(i + 1) % len(delays)}",
                      tokens=tokens[i])
    return tmg


class TestEarliestFiring:
    def test_ring_firing_times(self):
        records = earliest_firing_times(ring(), iterations=3)
        # token in p0 enables t1 at time 0; t2 at 0+3; t0 at 3+1; period 6.
        assert records["t1"].start_times == [0, 6, 12]
        assert records["t2"].start_times == [3, 9, 15]
        assert records["t0"].start_times == [4, 10, 16]

    def test_invalid_iterations(self):
        with pytest.raises(ReproError):
            earliest_firing_times(ring(), iterations=0)

    def test_deadlocked_graph_stalls(self):
        tmg = ring(tokens=(0, 0, 0))
        records = earliest_firing_times(tmg, iterations=5)
        assert all(r.count == 0 for r in records.values())

    def test_partial_deadlock(self):
        # live ring plus an appendix transition fed by a token-free loop
        tmg = ring()
        tmg.add_transition("dead_a", delay=1)
        tmg.add_transition("dead_b", delay=1)
        tmg.add_place("dp0", "dead_a", "dead_b", tokens=0)
        tmg.add_place("dp1", "dead_b", "dead_a", tokens=0)
        records = earliest_firing_times(tmg, iterations=4)
        assert records["t1"].count == 4
        assert records["dead_a"].count == 0

    def test_multiple_tokens_pipeline(self):
        tmg = ring(delays=(2, 2, 2), tokens=(1, 1, 1))
        records = earliest_firing_times(tmg, iterations=4)
        # three tokens, total delay 6 -> period 2 per transition
        t1 = records["t1"].start_times
        assert t1[1] - t1[0] == 2


class TestMeasuredCycleTime:
    def test_matches_analysis_on_ring(self):
        tmg = ring()
        assert measured_cycle_time(tmg, iterations=64) == analyze(tmg).cycle_time

    def test_matches_on_multi_token_ring(self):
        # Two tokens travel as a burst: the long-run rate is 12/2 = 6, but
        # any finite window carries a bounded burst residue.
        tmg = ring(delays=(4, 4, 4), tokens=(2, 0, 0))
        measured = measured_cycle_time(tmg, iterations=128)
        assert abs(float(measured) - 6.0) <= 12 / 63

    def test_deadlocked_returns_none(self):
        assert measured_cycle_time(ring(tokens=(0, 0, 0))) is None

    def test_specific_transition(self):
        tmg = ring()
        assert measured_cycle_time(tmg, iterations=64, transition="t2") == 6
