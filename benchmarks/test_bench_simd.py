"""SIMD — batched lock-step simulation must beat sequential runs >= 5x.

The DSE loop evaluates dozens of latency-only neighbors per iteration;
:class:`repro.sim.BatchSimulator` advances them all over one compiled
:class:`~repro.ir.LoweredIR`, executing the shared control path once with
per-lane clocks in ``(B,)`` numpy vectors.  The promise is twofold and
both halves are asserted here:

* **aggregate throughput** — a 64-candidate batch of the motivating
  example finishes >= 5x faster than 64 sequential
  :class:`~repro.sim.Simulator` runs, each timed in full (runs of one IR
  otherwise share its control walk through the ``walk`` memo);
* **bit-identity** — every one of the 64 lanes equals the frozen
  :class:`~tests.sim.reference.ReferenceSimulator`'s result for that candidate
  alone (and the lane-0 trace matches when a sink is attached).
"""

import random
import time

from repro.cache import memos
from repro.core import ChannelOrdering, motivating_example
from repro.obs.sinks import MemorySink
from repro.sim import BatchLane, BatchSimulator, Simulator
from tests.sim.reference import ReferenceSimulator

#: Enforced floor on batch vs sequential aggregate throughput (measured
#: well above this on a 64-lane batch; 5x is the registry's claim).
MIN_SPEEDUP = 5.0
N_LANES = 64
ITERATIONS = 60
REPEATS = 5


def _setup():
    system = motivating_example()
    ordering = ChannelOrdering.declaration_order(system)
    rng = random.Random(42)
    names = list(system.process_names)
    lanes = [BatchLane()] + [
        BatchLane(process_latencies={n: rng.randint(1, 20) for n in names})
        for _ in range(N_LANES - 1)
    ]
    return system, ordering, lanes


def _timed_run(simulator):
    """One full run's wall time and result: the walk memo is cleared first,
    so no run reuses an earlier run's control walk."""
    memos()["walk"].clear()
    start = time.perf_counter()
    result = simulator.run(iterations=ITERATIONS)
    return time.perf_counter() - start, result


def _time_batch(system, ordering, lanes):
    times, results = [], None
    for _ in range(REPEATS):
        elapsed, results = _timed_run(
            BatchSimulator(system, ordering, lanes=lanes))
        times.append(elapsed)
    return min(times), results


def _time_sequential(system, ordering, lanes):
    times = []
    for _ in range(REPEATS):
        simulators = [
            Simulator(
                system, ordering,
                process_latencies=lane.process_latencies or {},
            )
            for lane in lanes
        ]
        times.append(sum(_timed_run(simulator)[0] for simulator in simulators))
    return min(times)


def test_bench_simd_batch_speedup(benchmark):
    """64 lanes in lock-step >= 5x faster than 64 sequential runs."""
    system, ordering, lanes = _setup()
    # Warm the lowering memo and branch predictors on both paths.
    BatchSimulator(system, ordering, lanes=lanes[:2]).run(iterations=2)
    Simulator(system, ordering).run(iterations=2)

    t_batch, results = _time_batch(system, ordering, lanes)
    t_seq = _time_sequential(system, ordering, lanes)

    benchmark.pedantic(
        lambda: BatchSimulator(system, ordering, lanes=lanes).run(
            iterations=ITERATIONS
        ),
        rounds=3,
        iterations=1,
    )

    speedup = t_seq / t_batch
    benchmark.extra_info.update({
        "lanes": N_LANES,
        "batch_s": round(t_batch, 4),
        "sequential_s": round(t_seq, 4),
        "speedup": round(speedup, 2),
    })
    print(f"\nbatch {t_batch*1e3:.1f} ms | sequential {t_seq*1e3:.1f} ms | "
          f"speedup x{speedup:.2f} over {N_LANES} lanes")

    # Every lane bit-identical to the frozen reference engine.
    for lane, result in zip(lanes, results):
        expected = ReferenceSimulator(
            system, ordering,
            process_latencies=lane.process_latencies or {},
        ).run(iterations=ITERATIONS)
        assert result == expected

    assert speedup >= MIN_SPEEDUP


def test_bench_simd_traced_lane_identical(benchmark):
    """A traced lane streams the identical events the scalar engine does."""
    system, ordering, lanes = _setup()
    sink_batch, sink_scalar = MemorySink(), MemorySink()
    traced = [BatchLane(sinks=(sink_batch,))] + lanes[1:]

    results = benchmark.pedantic(
        lambda: BatchSimulator(system, ordering, lanes=traced).run(
            iterations=ITERATIONS
        ),
        rounds=1,
        iterations=1,
    )
    expected = Simulator(
        system, ordering, sinks=(sink_scalar,)
    ).run(iterations=ITERATIONS)

    assert results[0] == expected
    n = len(sink_scalar._events)
    # The benchmarked lambda may have run more than once; the scalar
    # emission order must prefix-match every batched replay.
    assert sink_batch._events[:n] == sink_scalar._events
    benchmark.extra_info.update({"events_per_run": n})
