"""Counter/Timer/Histogram primitives, the MetricsRegistry, and the
ambient registry that ``collect()`` activates."""

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    collect,
    format_metrics,
)
from repro.obs.metrics import active, count, observe, timed


class TestCounter:
    def test_add(self):
        counter = Counter("n")
        counter.add()
        counter.add(4)
        assert counter.value == 5


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer("t")
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.total_s >= 0.0
        assert timer.mean_s == pytest.approx(timer.total_s / 2)

    def test_observe_direct(self):
        timer = Timer("t")
        timer.observe(0.5)
        timer.observe(1.5)
        assert timer.total_s == pytest.approx(2.0)
        assert timer.mean_s == pytest.approx(1.0)

    def test_exception_still_records(self):
        timer = Timer("t")
        with pytest.raises(RuntimeError):
            with timer:
                raise RuntimeError
        assert timer.count == 1


class TestHistogram:
    def test_summaries(self):
        hist = Histogram("h")
        for v in (1, 2, 3, 4):
            hist.observe(v)
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_empty(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_percentile_range_checked(self):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.timer("t") is registry.timer("t")
        assert registry.histogram("h") is registry.histogram("h")

    def test_iterators_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z").add()
        registry.counter("a").add()
        assert [c.name for c in registry.counters()] == ["a", "z"]

    def test_merge_cache_stats(self):
        registry = MetricsRegistry()
        registry.merge_cache_stats({
            "results": {"hits": 3, "misses": 1, "evictions": 0,
                        "hit_rate": 0.75},
        })
        assert registry.counter("cache.results.hits").value == 3
        assert registry.counter("cache.results.misses").value == 1
        names = {c.name for c in registry.counters()}
        assert "cache.results.hit_rate" not in names  # derived, skipped

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.timer("t").observe(0.25)
        registry.histogram("h").observe(7.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["timers"]["t"]["count"] == 1
        assert snap["histograms"]["h"]["p95"] == 7.0

    def test_snapshot_is_json_friendly(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").add()
        registry.timer("t").observe(1.0)
        registry.histogram("h").observe(2.0)
        json.dumps(registry.snapshot())  # must not raise


class TestFormatMetrics:
    def test_sections_appear(self):
        registry = MetricsRegistry()
        registry.counter("sim.runs").add()
        registry.timer("dse.analyze").observe(0.1)
        registry.histogram("dse.iteration.wall_s").observe(0.2)
        text = format_metrics(registry)
        assert "sim.runs" in text
        assert "dse.analyze" in text
        assert "dse.iteration.wall_s" in text

    def test_empty_registry(self):
        assert format_metrics(MetricsRegistry()) == ""


class TestCollect:
    def test_helpers_record_into_the_active_registry(self):
        with collect() as registry:
            assert active() is registry
            count("c")
            count("c", 4)
            with timed("t"):
                pass
            observe("h", 2.0)
        assert registry.counter("c").value == 5
        assert registry.timer("t").count == 1
        assert registry.histogram("h").values == [2.0]

    def test_no_active_registry_records_nothing(self):
        assert active() is None
        count("c")
        observe("h", 1.0)
        with timed("t") as timer:
            pass
        assert not isinstance(timer, Timer)
        assert active() is None

    def test_given_registry_keeps_accumulating(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        with collect(registry) as collected:
            count("c")
        assert collected is registry
        assert registry.counter("c").value == 3

    def test_nested_collect_restores_the_outer_registry(self):
        with collect() as outer:
            count("c")
            with collect() as inner:
                count("c", 10)
            assert active() is outer
            count("c")
        assert active() is None
        assert outer.counter("c").value == 2
        assert inner.counter("c").value == 10

    def test_exception_restores_the_outer_registry(self):
        with collect() as outer:
            with pytest.raises(RuntimeError):
                with collect():
                    raise RuntimeError
            assert active() is outer
        assert active() is None
