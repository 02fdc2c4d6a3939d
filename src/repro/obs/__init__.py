"""Observability: structured tracing, metrics, and stall attribution.

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
* **Stall attribution** — :mod:`repro.obs.profile` ranks where each
  process spent its stall cycles, by channel and waited-on peer.

Everything here is pay-for-what-you-use: with no sink attached and no
registry active, the instrumented code paths cost one predicate check
(guarded by ``benchmarks/test_bench_obs_overhead.py``).  The instrumented
layers import :mod:`repro.obs.metrics` alone; like every lazy package
root (:mod:`repro._lazy`), the names below load their module on first
use, so that import stays off the exporters and sinks.
"""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.obs.metrics import (
        MetricsRegistry as MetricsRegistry,
        collect as collect,
        format_metrics as format_metrics,
    )
    from repro.obs.perfetto import render_chrome_trace as render_chrome_trace
    from repro.obs.sinks import (
        JsonlSink as JsonlSink,
        MemorySink as MemorySink,
        NullSink as NullSink,
        RingBufferSink as RingBufferSink,
        event_to_dict as event_to_dict,
    )
    from repro.obs.vcd import to_vcd as to_vcd
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".metrics": ("MetricsRegistry", "collect", "format_metrics"),
        ".perfetto": ("render_chrome_trace",),
        ".sinks": (
            "JsonlSink", "MemorySink", "NullSink", "RingBufferSink", "event_to_dict",
        ),
        ".vcd": ("to_vcd",),
    })
