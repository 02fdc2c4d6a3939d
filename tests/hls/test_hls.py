"""Tests for the HLS substrate: implementations, Pareto sets, knobs,
channel characterization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ValidationError
from repro.hls import (
    Implementation,
    ImplementationLibrary,
    KnobSpace,
    ParetoSet,
    synthesize_pareto_set,
)
from repro.hls.characterize import (
    ChannelPhysics,
    frame_latency,
    transfer_latency,
)
from repro.hls.pareto import pareto_filter
from repro.hls.knobs import synthesize_points


class TestImplementation:
    def test_dominates(self):
        fast_small = Implementation("a", latency=10, area=5.0)
        slow_big = Implementation("b", latency=20, area=9.0)
        assert fast_small.dominates(slow_big)
        assert not slow_big.dominates(fast_small)

    def test_equal_points_do_not_dominate(self):
        a = Implementation("a", latency=10, area=5.0)
        b = Implementation("b", latency=10, area=5.0)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_incomparable(self):
        fast_big = Implementation("a", latency=5, area=9.0)
        slow_small = Implementation("b", latency=9, area=5.0)
        assert not fast_big.dominates(slow_small)
        assert not slow_small.dominates(fast_big)

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            Implementation("x", latency=-1, area=1.0)
        with pytest.raises(ValidationError):
            Implementation("x", latency=1, area=-1.0)


class TestParetoFilter:
    def test_filters_dominated(self):
        points = [
            Implementation("a", 10, 5.0),
            Implementation("b", 12, 6.0),  # dominated by a
            Implementation("c", 5, 9.0),
        ]
        frontier = pareto_filter(points)
        assert [p.name for p in frontier] == ["c", "a"]

    def test_idempotent(self):
        points = [
            Implementation(f"p{i}", latency=10 - i, area=float(i * i))
            for i in range(5)
        ]
        once = pareto_filter(points)
        assert pareto_filter(once) == once

    @settings(max_examples=50, deadline=None)
    @given(
        latencies=st.lists(st.integers(1, 50), min_size=1, max_size=12),
        areas=st.lists(st.floats(0.5, 50), min_size=12, max_size=12),
    )
    def test_no_dominance_within_frontier(self, latencies, areas):
        points = [
            Implementation(f"p{i}", latency=l, area=round(a, 2))
            for i, (l, a) in enumerate(zip(latencies, areas))
        ]
        frontier = pareto_filter(points)
        for x in frontier:
            for y in frontier:
                if x.name != y.name:
                    assert not x.dominates(y)

    @settings(max_examples=50, deadline=None)
    @given(
        latencies=st.lists(st.integers(1, 50), min_size=1, max_size=12),
    )
    def test_every_input_dominated_or_kept(self, latencies):
        points = [
            Implementation(f"p{i}", latency=l, area=float((l * 7) % 13 + 1))
            for i, l in enumerate(latencies)
        ]
        frontier = pareto_filter(points)
        names = {p.name for p in frontier}
        for point in points:
            if point.name in names:
                continue
            assert any(
                f.dominates(point) or (f.latency, f.area) == (point.latency, point.area)
                for f in frontier
            )


class TestParetoSet:
    def _set(self):
        return ParetoSet.from_points(
            "p",
            [
                Implementation("slow", 20, 4.0),
                Implementation("mid", 10, 6.0),
                Implementation("fast", 5, 9.0),
            ],
        )

    def test_sorted_fastest_first(self):
        pareto = self._set()
        assert pareto.fastest.name == "fast"
        assert pareto.smallest.name == "slow"
        assert [p.name for p in pareto] == ["fast", "mid", "slow"]

    def test_by_name(self):
        assert self._set().by_name("mid").latency == 10
        with pytest.raises(ConfigurationError):
            self._set().by_name("ghost")

    def test_filters(self):
        pareto = self._set()
        assert [p.name for p in pareto.faster_than(10)] == ["fast"]
        assert [p.name for p in pareto.at_most_area(6.0)] == ["mid", "slow"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ParetoSet.from_points("p", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            ParetoSet.from_points(
                "p",
                [Implementation("x", 1, 1.0), Implementation("x", 2, 2.0)],
            )

    def test_unfiltered_requires_independence(self):
        with pytest.raises(ValidationError):
            ParetoSet.from_points(
                "p",
                [Implementation("a", 10, 5.0), Implementation("b", 12, 6.0)],
                filter_dominated=False,
            )


class TestLibrary:
    def test_total_points(self):
        library = ImplementationLibrary(
            [
                ParetoSet.from_points("a", [Implementation("x", 1, 1.0)]),
                ParetoSet.from_points(
                    "b",
                    [Implementation("y", 1, 1.0), Implementation("z", 2, 0.5)],
                ),
            ]
        )
        assert library.total_points() == 3
        assert len(library) == 2
        assert library.has("a") and not library.has("ghost")

    def test_duplicate_process_rejected(self):
        library = ImplementationLibrary()
        library.add(ParetoSet.from_points("a", [Implementation("x", 1, 1.0)]))
        with pytest.raises(ValidationError):
            library.add(
                ParetoSet.from_points("a", [Implementation("y", 2, 2.0)])
            )

    def test_unknown_process_raises(self):
        with pytest.raises(ConfigurationError):
            ImplementationLibrary().of("ghost")


class TestKnobModel:
    def test_point_count_is_knob_product(self):
        knobs = KnobSpace(unroll_factors=(1, 2), pipeline=(0, 1),
                          sharing_levels=(0,))
        points = synthesize_points("p", 100, 50.0, knobs)
        assert len(points) == 4

    def test_deterministic_per_seed(self):
        a = synthesize_points("p", 100, 50.0, seed=1)
        b = synthesize_points("p", 100, 50.0, seed=1)
        assert [(x.latency, x.area) for x in a] == [
            (x.latency, x.area) for x in b
        ]

    def test_unrolling_speeds_up_and_grows(self):
        knobs = KnobSpace(unroll_factors=(1, 8), pipeline=(0,),
                          sharing_levels=(0,))
        base, unrolled = synthesize_points("p", 1000, 100.0, knobs, jitter=0.0)
        assert unrolled.latency < base.latency
        assert unrolled.area > base.area

    def test_pareto_set_respects_max_points(self):
        pareto = synthesize_pareto_set("p", 5000, 100.0, max_points=4)
        assert 2 <= len(pareto) <= 4

    def test_pareto_set_keeps_extremes(self):
        full = synthesize_pareto_set("p", 5000, 100.0)
        thin = synthesize_pareto_set("p", 5000, 100.0, max_points=4)
        assert thin.fastest.latency == full.fastest.latency
        assert thin.smallest.area == full.smallest.area


class TestChannelCharacterization:
    def test_paper_maximum_is_5280(self):
        # One 4:2:0 SIF frame at 24 elements/cycle: 126,720 / 24 = 5,280.
        assert transfer_latency(
            126_720, ChannelPhysics(elements_per_cycle=24)
        ) == 5280

    def test_luma_frame_at_16_wide(self):
        assert frame_latency() == 5280  # 84,480 / 16

    def test_minimum_is_one(self):
        assert transfer_latency(0) == 1
        assert transfer_latency(1) == 1

    def test_ceil_division(self):
        physics = ChannelPhysics(elements_per_cycle=10)
        assert transfer_latency(11, physics) == 2

    def test_setup_overhead(self):
        physics = ChannelPhysics(elements_per_cycle=10, setup_cycles=3)
        assert transfer_latency(10, physics) == 4

    def test_invalid_physics(self):
        with pytest.raises(ValidationError):
            ChannelPhysics(elements_per_cycle=0)
        with pytest.raises(ValidationError):
            ChannelPhysics(setup_cycles=-1)

    def test_negative_elements_rejected(self):
        with pytest.raises(ValidationError):
            transfer_latency(-1)
