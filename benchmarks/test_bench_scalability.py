"""SCAL — Section 6 "Analysis of scalability".

"We generated graphs with up to 10,000 processes interconnected with
15,000 channels ... The experimental results demonstrate that our
approach scales well, as ERMES takes a time of the order of a few minutes
in the worst cases."

One benchmark per size runs Algorithm 1 plus the performance analysis on
a synthetic SoC of that size; the 10,000-process point (the paper's
maximum) is asserted to finish well inside the paper's "few minutes".
"""

import time

import pytest

from repro.core import synthetic_soc
from repro.model import analyze_system
from repro.ordering import channel_ordering


def _order_and_analyze(system, phases):
    """Algorithm 1 then the analysis, each phase's wall time into
    ``phases`` (``ordering_s``, ``analysis_s``)."""
    start = time.perf_counter()
    ordering = channel_ordering(system)
    phases["ordering_s"] = round(time.perf_counter() - start, 3)
    start = time.perf_counter()
    performance = analyze_system(system, ordering)
    phases["analysis_s"] = round(time.perf_counter() - start, 3)
    return performance


@pytest.mark.parametrize("n_processes", [100, 1000, 4000])
def test_bench_scalability_sweep(benchmark, n_processes):
    system = synthetic_soc(n_processes, seed=0)
    phases = {}
    performance = benchmark.pedantic(
        _order_and_analyze, args=(system, phases), rounds=1, iterations=1,
        warmup_rounds=0,
    )
    assert performance.cycle_time > 0
    benchmark.extra_info.update(
        {
            "processes": n_processes,
            "channels": len(system.channels),
            "cycle_time": float(performance.cycle_time),
            **phases,
        }
    )


def test_bench_scalability_paper_maximum(benchmark):
    """The paper's largest instance: 10,000 processes / ~15,000 worker
    channels, required to finish in minutes (ours: seconds)."""
    system = synthetic_soc(10_000, seed=0)
    phases = {}
    start = time.perf_counter()
    performance = benchmark.pedantic(
        _order_and_analyze, args=(system, phases), rounds=1, iterations=1,
        warmup_rounds=0,
    )
    elapsed = time.perf_counter() - start
    assert performance.cycle_time > 0
    assert elapsed < 300, "must stay within the paper's 'few minutes'"
    benchmark.extra_info.update(
        {
            "processes": 10_000,
            "channels": len(system.channels),
            "elapsed_s": round(elapsed, 2),
            **phases,
        }
    )
    print(f"\n10,000 processes / {len(system.channels)} channels: "
          f"{elapsed:.1f}s (ordering {phases['ordering_s']}s, analysis "
          f"{phases['analysis_s']}s; paper: minutes)")
