"""OBS — the observability layer must be (near) free when unused.

The tracing rework put a sink dispatch on the simulator's hottest path
(every compute/put/get records through ``TraceRecorder.record``).  This
benchmark guards the design promise: with no sink and no metrics attached
the recorder's single ``_active`` check keeps the simulator within a
small factor of its pre-instrumentation cost, and attaching observers
never changes results.

Reported numbers:

* bare simulator time on a synthetic SoC (the baseline);
* the same run with a :class:`~repro.obs.NullSink` attached (pays event
  construction + dispatch) and with full in-memory tracing;
* overhead ratios, asserted under generous ceilings so the benchmark
  fails if someone accidentally makes the off-path expensive.
"""

import statistics
import time

from repro.core import synthetic_soc
from repro.obs import MemorySink, NullSink, collect
from repro.ordering import channel_ordering
from repro.sim import Simulator

#: Bare run (no sinks, no metrics, no record_trace) may cost at most this
#: multiple of itself re-measured — i.e. the guard is on run-to-run noise —
#: and the observed-vs-bare ratio ceilings below catch real regressions.
BARE_OVERHEAD_CEILING = 1.15
ITERATIONS = 40
REPEATS = 5


def _system():
    system = synthetic_soc(60, seed=7)
    return system, channel_ordering(system)


def _time_run(system, ordering, repeats=REPEATS, **kwargs):
    times = []
    results = []
    for _ in range(repeats):
        simulator = Simulator(system, ordering, **kwargs)
        start = time.perf_counter()
        results.append(simulator.run(iterations=ITERATIONS))
        times.append(time.perf_counter() - start)
    return min(times), results[-1]


def test_bench_null_path_overhead(benchmark):
    """With nothing attached, the recorder must stay out of the way."""
    system, ordering = _system()
    # Warm up imports/caches before timing.
    Simulator(system, ordering).run(iterations=2)

    t_bare, bare = _time_run(system, ordering)
    t_rebare, _ = _time_run(system, ordering)
    t_null, nulled = _time_run(system, ordering, sinks=[NullSink()])
    t_traced, _ = _time_run(system, ordering, sinks=[MemorySink()])
    with collect():
        t_metrics, metered = _time_run(system, ordering)

    benchmark.pedantic(
        lambda: Simulator(system, ordering).run(iterations=ITERATIONS),
        rounds=3,
        iterations=1,
    )

    noise = max(t_bare, t_rebare) / min(t_bare, t_rebare)
    null_ratio = t_null / t_bare
    traced_ratio = t_traced / t_bare
    metrics_ratio = t_metrics / t_bare
    benchmark.extra_info.update({
        "bare_s": round(t_bare, 4),
        "noise_ratio": round(noise, 3),
        "null_sink_ratio": round(null_ratio, 3),
        "memory_sink_ratio": round(traced_ratio, 3),
        "metrics_ratio": round(metrics_ratio, 3),
    })
    print(f"\nbare {t_bare*1e3:.1f} ms | null sink x{null_ratio:.2f} | "
          f"memory sink x{traced_ratio:.2f} | metrics x{metrics_ratio:.2f}")

    # Results are bit-identical however the run is observed.
    assert bare == nulled == metered

    # Metrics are recorded once at end-of-run: effectively free.
    assert metrics_ratio < BARE_OVERHEAD_CEILING + (noise - 1)
    # A sink pays event construction; keep it bounded (generous ceiling —
    # this catches accidental quadratic behaviour, not micro-noise).
    assert null_ratio < 3.0
    assert traced_ratio < 4.0


def test_bench_ring_buffer_bounded_memory(benchmark):
    """A bounded ring keeps only ``capacity`` events however long the run."""
    from repro.obs import RingBufferSink

    system, ordering = _system()
    sink = RingBufferSink(capacity=256)

    def run():
        return Simulator(system, ordering, sinks=[sink]).run(
            iterations=ITERATIONS
        )

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(sink.events()) == 256
    assert sink.dropped > 0
    benchmark.extra_info.update({
        "kept": 256,
        "dropped": sink.dropped,
        "drop_ratio": round(sink.dropped / (sink.dropped + 256), 3),
    })


def test_bench_trace_volume(benchmark):
    """Report the event volume a traced run produces (sizing guidance for
    the JSONL/Perfetto exports in docs/OBSERVABILITY.md)."""
    system, ordering = _system()
    sink = MemorySink()
    benchmark.pedantic(
        lambda: Simulator(system, ordering, sinks=[sink]).run(
            iterations=ITERATIONS
        ),
        rounds=1,
        iterations=1,
    )
    events = sink.events()
    per_cycle = len(events) / max(e.time for e in events)
    benchmark.extra_info.update({
        "events": len(events),
        "events_per_cycle": round(per_cycle, 2),
        "kinds": len({e.kind for e in events}),
    })
    print(f"\n{len(events)} events, {per_cycle:.2f}/cycle "
          f"(median wait "
          f"{statistics.median(e.wait for e in events):.0f} cycles)")
    assert events
