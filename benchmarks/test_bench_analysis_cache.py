"""CACHE — the memoized/incremental analysis engine on the DSE hot loop.

Quantifies the three layers of ``repro.perf`` on realistic workloads:

* **result hits** — replaying an identical analysis stream (the pattern of
  repeated explorations and target sweeps) through a warm
  :class:`~repro.perf.PerformanceEngine`, asserted >= 3x faster than the
  uncached reference path;
* **incremental structure reuse** — a latency-only stream (the explorer's
  per-iteration pattern) against from-scratch TMG builds;
* **end-to-end** — a full ERMES exploration with and without a warm shared
  engine.

Results are asserted bit-identical to the uncached path on every request.
"""

import statistics
import time

from repro.core import ChannelOrdering, synthetic_soc
from repro.dse import Explorer, SystemConfiguration
from repro.hls import Implementation, ImplementationLibrary, ParetoSet
from repro.model import analyze_system
from repro.ordering import channel_ordering
from repro.perf import LruCache, PerformanceEngine

SPEEDUP_FLOOR = 3.0
#: Uncached/incremental round pairs the structure-reuse gate takes the
#: median ratio of; one pair alone is noise-bound on a small machine.
INTERLEAVED_ROUNDS = 5


def _latency_stream(system, repeats=40):
    """The hot-loop shape: same structure, rotating latency overrides."""
    workers = [p.name for p in system.workers()]
    stream = []
    for i in range(repeats):
        scale = 1 + (i % 5)
        stream.append({
            name: system.process(name).latency * scale for name in workers
        })
    return stream


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_bench_result_cache_replay(benchmark, motivating):
    """A replayed analysis stream must hit the result cache and be >= 3x
    faster than the uncached reference (the acceptance criterion)."""
    ordering = ChannelOrdering.declaration_order(motivating)
    stream = _latency_stream(motivating, repeats=40)
    engine = PerformanceEngine()

    def uncached():
        return [
            analyze_system(motivating, ordering, process_latencies=lat)
            for lat in stream
        ]

    def cached():
        return [
            analyze_system(motivating, ordering, process_latencies=lat,
                           perf_engine=engine)
            for lat in stream
        ]

    reference, t_uncached = _timed(uncached)
    warmup = cached()  # first pass: misses (incremental builds)
    assert warmup == reference  # bit-identical, report included
    hot, t_cached = benchmark.pedantic(
        lambda: _timed(cached), rounds=1, iterations=1, warmup_rounds=0,
    )
    assert hot == reference
    speedup = t_uncached / t_cached
    stats = engine.results.stats
    assert stats.hits >= len(stream), "replay must be served from cache"
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm cache replay only {speedup:.1f}x faster "
        f"(required >= {SPEEDUP_FLOOR}x): {stats}"
    )
    benchmark.extra_info.update({
        "uncached_s": round(t_uncached, 4),
        "cached_s": round(t_cached, 4),
        "speedup": round(speedup, 1),
        "hit_rate": stats.hit_rate,
    })
    print(f"\nresult-cache replay: {t_uncached*1e3:.1f}ms -> "
          f"{t_cached*1e3:.1f}ms ({speedup:.0f}x), {stats}")


def test_bench_incremental_structure_reuse(benchmark):
    """Latency-only changes on a mid-size SoC: the incremental path skips
    TMG construction + liveness and must beat from-scratch rebuilds."""
    system = synthetic_soc(300, seed=7)
    ordering = channel_ordering(system)  # declaration order deadlocks
    stream = _latency_stream(system, repeats=10)

    def uncached():
        return [
            analyze_system(system, ordering, process_latencies=lat)
            for lat in stream
        ]

    def incremental():
        # Fresh engine each call, result cache off: only structure reuse
        # is in play.
        engine = PerformanceEngine()
        engine.results = LruCache(0)
        return [
            analyze_system(system, ordering, process_latencies=lat,
                           perf_engine=engine)
            for lat in stream
        ]

    reference = uncached()

    def interleaved():
        times = []
        for _ in range(INTERLEAVED_ROUNDS):
            expected, t_uncached = _timed(uncached)
            got, t_incremental = _timed(incremental)
            assert expected == reference and got == reference
            times.append((t_uncached, t_incremental))
        return times

    times = benchmark.pedantic(
        interleaved, rounds=1, iterations=1, warmup_rounds=0,
    )
    speedup = statistics.median(u / i for u, i in times)
    t_uncached = statistics.median(u for u, _ in times)
    t_incremental = statistics.median(i for _, i in times)
    benchmark.extra_info.update({
        "uncached_s": round(t_uncached, 4),
        "incremental_s": round(t_incremental, 4),
        "speedup": round(speedup, 2),
    })
    print(f"\nincremental structures (300 processes, 10 latency sets, "
          f"median of {INTERLEAVED_ROUNDS} interleaved rounds): "
          f"{t_uncached*1e3:.0f}ms -> {t_incremental*1e3:.0f}ms "
          f"({speedup:.1f}x)")
    assert speedup > 1.0, "structure reuse must not be slower than rebuilds"


def test_bench_explorer_end_to_end(benchmark, motivating):
    """A repeated ERMES run against a warm shared engine: the second run's
    analyses are all result-cache hits."""
    sets = []
    for process in motivating.workers():
        base = process.latency
        sets.append(ParetoSet.from_points(process.name, [
            Implementation(f"{process.name}.small", base * 4, 10.0),
            Implementation(f"{process.name}.mid", base * 2, 16.0),
            Implementation(f"{process.name}.fast", base, 26.0),
        ]))
    library = ImplementationLibrary(sets)
    config = SystemConfiguration.initial(
        motivating, library,
        ordering=ChannelOrdering.declaration_order(motivating),
        pick="smallest",
    )

    engine = PerformanceEngine()
    cold, t_cold = _timed(
        lambda: Explorer(target_cycle_time=20, perf_engine=engine).run(config)
    )
    warm, t_warm = benchmark.pedantic(
        lambda: _timed(
            lambda: Explorer(target_cycle_time=20,
                             perf_engine=engine).run(config)
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert warm.history == cold.history
    stats = engine.results.stats
    assert stats.hits > 0
    benchmark.extra_info.update({
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "hit_rate": stats.hit_rate,
    })
    print(f"\nERMES rerun: {t_cold*1e3:.1f}ms cold -> {t_warm*1e3:.1f}ms "
          f"warm, {stats}")
