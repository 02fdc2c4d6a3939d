"""The memoized engine returns exactly what the uncached path returns.

The contract under test (docs/API.md, "Analysis caching"): for every
system/ordering/latency combination, ``PerformanceEngine.analyze`` and the
reference :func:`repro.model.analyze_system` agree — on results *and* on
raised deadlocks — whether the answer comes from a fresh build, from a
reused structure, or from the result cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelOrdering
from repro.errors import DeadlockError, ValidationError
from repro.model import analyze_system
from repro.model import build_tmg
from repro.perf import LruCache, PerformanceEngine
from repro.tmg import build_event_graph

from tests.model.test_performance import ORACLES
from tests.strategies import layered_systems


def reference(system, ordering=None, latencies=None, **kwargs):
    return analyze_system(
        system, ordering, process_latencies=latencies, **kwargs
    )


class TestEquivalence:
    def test_bit_identical_without_screening(self, motivating,
                                             suboptimal_ordering):
        # The default engine runs the one exact Howard kernel, so even the
        # critical-cycle choice matches the uncached path.
        engine = PerformanceEngine()
        for scale in (1, 2, 3, 5):
            latencies = {
                p.name: p.latency * scale for p in motivating.workers()
            }
            expected = reference(motivating, suboptimal_ordering, latencies)
            got = engine.analyze(
                motivating, suboptimal_ordering, process_latencies=latencies
            )
            assert got == expected  # full dataclass equality, report included

    def test_float_mode_converts_the_exact_result(self, motivating,
                                                  suboptimal_ordering):
        engine = PerformanceEngine()
        expected = reference(motivating, suboptimal_ordering)
        got = reference(
            motivating, suboptimal_ordering, exact=False, perf_engine=engine
        )
        assert got.cycle_time == float(expected.cycle_time)
        assert type(got.cycle_time) is float
        assert got.critical_processes == expected.critical_processes
        assert got.critical_channels == expected.critical_channels

    def test_cache_hit_returns_same_object(self, tiny_pipeline):
        engine = PerformanceEngine()
        first = engine.analyze(tiny_pipeline)
        second = engine.analyze(tiny_pipeline)
        assert second is first
        assert engine.results.stats.hits == 1

    def test_value_based_keys_survive_rebuilds(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        clone = tiny_pipeline.with_process_latencies({})
        engine.analyze(clone)
        assert engine.results.stats.hits == 1

    def test_latency_only_change_reuses_structure(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        got = engine.analyze(tiny_pipeline, process_latencies={"A": 9})
        assert engine.structures.stats.hits == 1
        expected = reference(tiny_pipeline, latencies={"A": 9})
        assert got == expected

    def test_incremental_disabled_still_correct(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.structures = LruCache(0)  # every miss rebuilds the structure
        engine.analyze(tiny_pipeline)
        got = engine.analyze(tiny_pipeline, process_latencies={"A": 9})
        assert got == reference(tiny_pipeline, latencies={"A": 9})
        assert len(engine.structures) == 0

    def test_modes_agree_with_oracles(self, motivating, suboptimal_ordering):
        engine = PerformanceEngine()
        graph = build_event_graph(build_tmg(motivating, suboptimal_ordering).tmg)
        for exact in (True, False):
            expected = reference(motivating, suboptimal_ordering, exact=exact)
            got = reference(
                motivating, suboptimal_ordering, exact=exact,
                perf_engine=engine,
            )
            assert got == expected
            for oracle in ORACLES.values():
                assert oracle(graph) == got.cycle_time == 20

    @settings(max_examples=30, deadline=None)
    @given(system=layered_systems(), scale=st.integers(1, 4))
    def test_property_equivalence_on_random_systems(self, system, scale):
        # Random systems may deadlock under declaration order (the paper's
        # premise!) — parity must then hold on the error, not the result.
        engine = PerformanceEngine()
        latencies = {p.name: p.latency * scale for p in system.processes}
        try:
            expected = reference(system, latencies=latencies)
        except DeadlockError as error:
            with pytest.raises(DeadlockError) as warm:
                engine.analyze(system)
            with pytest.raises(DeadlockError) as got:
                engine.analyze(system, process_latencies=latencies)
            assert str(got.value) == str(error)
            assert str(warm.value) == str(error)
            return
        # Warm the structure cache with the unscaled latencies first, so
        # the checked result exercises the incremental path.
        engine.analyze(system)
        got = engine.analyze(system, process_latencies=latencies)
        assert got == expected

    @settings(max_examples=20, deadline=None)
    @given(system=layered_systems())
    def test_property_float_mode_cycle_time(self, system):
        # The float of the exact uncached result, with the same cycle.
        engine = PerformanceEngine()
        try:
            expected = reference(system)
        except DeadlockError as error:
            with pytest.raises(DeadlockError) as got:
                reference(system, exact=False, perf_engine=engine)
            assert str(got.value) == str(error)
            return
        got = reference(system, exact=False, perf_engine=engine)
        assert got.cycle_time == float(expected.cycle_time)
        assert got.report.critical_cycle == expected.report.critical_cycle


class TestDeadlockParity:
    def test_same_message_and_cycle(self, motivating, deadlock_ordering):
        engine = PerformanceEngine()
        with pytest.raises(DeadlockError) as uncached:
            reference(motivating, deadlock_ordering)
        with pytest.raises(DeadlockError) as first:
            engine.analyze(motivating, deadlock_ordering)
        with pytest.raises(DeadlockError) as cached:
            engine.analyze(motivating, deadlock_ordering)
        assert str(first.value) == str(uncached.value)
        assert str(cached.value) == str(uncached.value)
        assert cached.value.cycle == uncached.value.cycle
        assert engine.results.stats.hits == 1

    def test_deadlock_detected_without_instantiation(self, motivating,
                                                     deadlock_ordering):
        # Liveness is structural: the second raise with different latencies
        # must come from the cached structure, not a rebuilt TMG.
        engine = PerformanceEngine()
        with pytest.raises(DeadlockError):
            engine.analyze(motivating, deadlock_ordering)
        with pytest.raises(DeadlockError):
            engine.analyze(
                motivating, deadlock_ordering,
                process_latencies={"P2": 999},
            )
        assert engine.structures.stats.hits == 1


class TestValidationParity:
    def test_negative_latency_message(self, tiny_pipeline):
        engine = PerformanceEngine()
        with pytest.raises(ValidationError) as uncached:
            reference(tiny_pipeline, latencies={"A": -1})
        with pytest.raises(ValidationError) as got:
            engine.analyze(tiny_pipeline, process_latencies={"A": -1})
        assert str(got.value) == str(uncached.value)

    def test_negative_latency_after_structure_warm(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        with pytest.raises(ValidationError):
            engine.analyze(tiny_pipeline, process_latencies={"A": -1})

    def test_invalid_ordering_rejected(self, tiny_pipeline):
        engine = PerformanceEngine()
        bad = ChannelOrdering(gets={"A": ("o",)}, puts={})
        with pytest.raises(ValidationError):
            engine.analyze(tiny_pipeline, bad)


class TestLifecycle:
    def test_clear_forces_recompute(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        engine.clear()
        engine.analyze(tiny_pipeline)
        assert engine.results.stats.hits == 0
        assert engine.results.stats.misses == 2

    def test_result_eviction_bound(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.results = LruCache(2)
        for latency in (1, 2, 3, 4):
            engine.analyze(
                tiny_pipeline, process_latencies={"A": latency}
            )
        assert len(engine.results) == 2
        assert engine.results.stats.evictions == 2

    def test_stats_dict_shape(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        stats = engine.stats_dict()
        assert set(stats) == {"results", "structures"}
        assert set(stats["results"]) == {
            "hits", "misses", "evictions", "hit_rate"
        }

    def test_format_stats_lists_both_caches(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        text = engine.format_stats()
        assert "results" in text and "structures" in text


class TestAnalyzeSystemIntegration:
    def test_perf_engine_kwarg_routes_through_cache(self, tiny_pipeline):
        engine = PerformanceEngine()
        first = analyze_system(tiny_pipeline, perf_engine=engine)
        second = analyze_system(tiny_pipeline, perf_engine=engine)
        assert second is first
        assert engine.results.stats.hits == 1

    def test_none_keeps_reference_path(self, tiny_pipeline):
        first = analyze_system(tiny_pipeline)
        second = analyze_system(tiny_pipeline)
        assert second is not first
        assert second == first
