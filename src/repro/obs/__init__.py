"""Observability: structured tracing, metrics, and DSE profiling.

The paper's whole argument is that *communication behaviour* — blocking
``put``/``get`` stalls, backpressure, critical cycles — determines system
performance; this package makes that behaviour observable instead of
summarized:

* **Tracing** — :mod:`repro.obs.sinks` provides the pluggable sink API
  the simulator streams :class:`~repro.sim.trace.TraceEvent` records
  into (in-memory, JSONL streaming, bounded ring buffer), and
  :mod:`repro.obs.perfetto` / :mod:`repro.obs.vcd` export collected
  traces to Chrome trace-event JSON (Perfetto) and VCD waveforms.
* **Metrics** — :mod:`repro.obs.metrics` is the counter/timer/histogram
  registry the simulator, the DSE explorer, the checker and Algorithm 1
  record into while ``with collect() as registry:`` holds one active;
  metric names are a documented contract (``docs/OBSERVABILITY.md``).
* **Profiling** — :mod:`repro.obs.profile` snapshots every DSE iteration
  (action, cost, cache behaviour, ILP effort) so a run replays as a
  convergence timeline; backs ``ermes profile``.

Everything here is pay-for-what-you-use: with no sink attached and no
registry active, the instrumented code paths cost one predicate check
(guarded by ``benchmarks/test_bench_obs_overhead.py``).  The instrumented
layers import :mod:`repro.obs.metrics` alone; the names below load their
module on first use, so that import stays off the exporters and sinks.
"""

from importlib import import_module

_EXPORTS = {
    "Counter": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "Timer": "metrics",
    "collect": "metrics",
    "format_metrics": "metrics",
    "render_chrome_trace": "perfetto",
    "to_chrome_trace": "perfetto",
    "DseProfiler": "profile",
    "IterationSnapshot": "profile",
    "format_convergence": "profile",
    "stall_attribution": "profile",
    "JsonlSink": "sinks",
    "MemorySink": "sinks",
    "NullSink": "sinks",
    "RingBufferSink": "sinks",
    "event_to_dict": "sinks",
    "to_vcd": "vcd",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(f"{__name__}.{module}"), name)
