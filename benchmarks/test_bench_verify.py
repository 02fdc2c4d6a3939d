"""VERIFY — explicit-state model checking with partial-order reduction.

Two claims.  First, the stubborn-set reduction earns its keep: on a
6-stage buffered pipeline (independently moving endpoints are the
interleaving worst case) it must explore at least 5x fewer states than
the naive full interleaving — in practice the gap is closer to two
orders of magnitude.  Second, verification at the scale the explorer
uses it (a 4-process rendezvous system, checked after every Algorithm-1
run) completes in well under a second, so machine-checking liveness is
cheap enough to keep on by default.

Wall time rides beside the state counts: the reduction benchmark
records the reduced search's median ``wall_s`` and ``states_per_s``
(and the naive search's ``naive_wall_s``) in ``extra_info``.
"""

import statistics
import time

from repro.core.generators import fork_join
from repro.verify import Verdict, check_deadlock
from tests.verify.systems import buffered_pipeline


def test_bench_verify_por_reduction_6_stage_pipeline(benchmark):
    system = buffered_pipeline(6)
    start = time.perf_counter()
    naive = check_deadlock(system, por=False)
    naive_wall = time.perf_counter() - start
    walls = []

    def timed_check():
        start = time.perf_counter()
        result = check_deadlock(system)
        walls.append(time.perf_counter() - start)
        return result

    reduced = benchmark.pedantic(
        timed_check, rounds=3, iterations=1, warmup_rounds=0
    )
    wall = statistics.median(walls)
    assert reduced.verdict is naive.verdict is Verdict.DEADLOCK_FREE
    ratio = naive.states_explored / reduced.states_explored
    assert ratio >= 5.0, (
        f"POR must explore >= 5x fewer states than naive "
        f"({naive.states_explored} vs {reduced.states_explored})"
    )
    benchmark.extra_info.update(
        {
            "stages": 6,
            "naive_states": naive.states_explored,
            "por_states": reduced.states_explored,
            "reduction_x": round(ratio, 1),
            "por_pruned": reduced.por_pruned,
            "wall_s": round(wall, 5),
            "states_per_s": round(reduced.states_explored / wall),
            "naive_wall_s": round(naive_wall, 4),
        }
    )


def test_bench_verify_4_process_system_subsecond(benchmark):
    system = fork_join(4)  # 4 workers + testbench, pure rendezvous
    start = time.perf_counter()
    result = benchmark.pedantic(
        check_deadlock, args=(system,), rounds=5, iterations=1,
        warmup_rounds=1,
    )
    elapsed = time.perf_counter() - start
    assert result.verdict is Verdict.DEADLOCK_FREE
    assert elapsed < 1.0, "explorer-scale verification must be < 1 s"
    benchmark.extra_info.update(
        {
            "processes": len(system.processes),
            "channels": len(system.channels),
            "states": result.states_explored,
            "elapsed_s": round(elapsed, 4),
        }
    )
