"""A lightweight counter/timer/histogram registry, active by context.

The instrumentation substrate of the observability layer.  The
simulator, the DSE explorer, the checker and Algorithm 1 record through
three helpers — :func:`count`, :func:`timed` and :func:`observe` — into
whichever :class:`MetricsRegistry` is *active*: ``with collect() as
registry:`` activates one for the block (and restores the outer one on
exit).  With none active the helpers are one context-variable read and
record nothing, so the instrumented code needs no ``metrics`` parameter
and no guards.  :func:`active` serves the few sites whose recorded value
costs work to compute, which check it before computing.

Metric *names* are a stable contract — dashboards, tests, and the
``ermes profile`` output key on them.  The catalog lives in
``docs/OBSERVABILITY.md``; add new names there when instrumenting new
code.  Names are dotted lowercase paths (``dse.ilp.nodes``,
``cache.results.hits``).
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import TracebackType
from typing import Iterator, Mapping


@dataclass
class Counter:
    """A monotonically increasing integer."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Timer:
    """Accumulated wall-clock time over any number of timed sections.

    Use as a context manager::

        with registry.timer("dse.analyze"):
            ...
    """

    name: str
    total_s: float = 0.0
    count: int = 0
    _started: float | None = field(default=None, repr=False)

    def observe(self, seconds: float) -> None:
        self.total_s += seconds
        self.count += 1

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._started is not None:
            self.observe(time.perf_counter() - self._started)
            self._started = None

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class Histogram:
    """A set of numeric observations with summary statistics.

    Keeps every observation (callers observe per-iteration quantities, so
    cardinality is bounded by run length); summaries are computed lazily.
    """

    name: str
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank), 0 when empty."""
        if not self.values:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1,
                          round(p / 100 * (len(ordered) - 1))))
        return ordered[rank]


class MetricsRegistry:
    """Creates-or-returns named counters, timers, and histograms.

    One registry spans one observed activity (a profile run, one DSE
    session): activate it with :func:`collect` and every instrumented
    layer called inside the block reports into it.  ``snapshot()``
    produces a JSON-friendly dict, and :func:`format_metrics` a
    fixed-width table.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            made = self._counters[name] = Counter(name)
            return made

    def timer(self, name: str) -> Timer:
        try:
            return self._timers[name]
        except KeyError:
            made = self._timers[name] = Timer(name)
            return made

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            made = self._histograms[name] = Histogram(name)
            return made

    # ------------------------------------------------------------------

    def counters(self) -> Iterator[Counter]:
        for name in sorted(self._counters):
            yield self._counters[name]

    def timers(self) -> Iterator[Timer]:
        for name in sorted(self._timers):
            yield self._timers[name]

    def histograms(self) -> Iterator[Histogram]:
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def merge_cache_stats(
        self, stats: Mapping[str, Mapping[str, int | float]],
        prefix: str = "cache",
    ) -> None:
        """Absorb :meth:`repro.perf.PerformanceEngine.stats_dict` counters
        under the stable ``cache.<name>.<counter>`` names (hit_rate, a
        derived ratio, is skipped — recompute it from hits/misses)."""
        for cache_name, entries in stats.items():
            for key, value in entries.items():
                if key == "hit_rate":
                    continue
                counter = self.counter(f"{prefix}.{cache_name}.{key}")
                counter.value = int(value)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-friendly view of everything recorded so far."""
        return {
            "counters": {c.name: c.value for c in self.counters()},
            "timers": {
                t.name: {
                    "total_s": round(t.total_s, 6),
                    "count": t.count,
                    "mean_s": round(t.mean_s, 6),
                }
                for t in self.timers()
            },
            "histograms": {
                h.name: {
                    "count": h.count,
                    "total": h.total,
                    "mean": round(h.mean, 6),
                    "min": h.min,
                    "max": h.max,
                    "p50": h.percentile(50),
                    "p95": h.percentile(95),
                }
                for h in self.histograms()
            },
        }


_ACTIVE: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics", default=None
)
#: What :func:`timed` returns with no registry active (reusable: it
#: neither keeps state nor times anything).
_NOT_TIMED: AbstractContextManager[object] = nullcontext()


@contextmanager
def collect(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Activate ``registry`` (a fresh one when omitted) for the block.

    The outer registry, if any, is restored on exit — also when the
    block raises — so collections nest.
    """
    if registry is None:
        registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def active() -> MetricsRegistry | None:
    """The registry :func:`collect` activated, or ``None``."""
    return _ACTIVE.get()


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the active registry's counter ``name``."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.counter(name).add(amount)


def timed(name: str) -> AbstractContextManager[object]:
    """The active registry's timer ``name``, or a no-op context."""
    registry = _ACTIVE.get()
    return _NOT_TIMED if registry is None else registry.timer(name)


def observe(name: str, value: float) -> None:
    """Record ``value`` in the active registry's histogram ``name``."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.histogram(name).observe(value)


def format_metrics(registry: MetricsRegistry) -> str:
    """Fixed-width rendering of a registry (the ``ermes profile`` table)."""
    lines: list[str] = []
    timers = list(registry.timers())
    if timers:
        lines.append(f"{'timer':<32} {'total (s)':>12} {'calls':>8} "
                     f"{'mean (ms)':>12}")
        for t in timers:
            lines.append(f"{t.name:<32} {t.total_s:>12.4f} {t.count:>8} "
                         f"{t.mean_s * 1000:>12.3f}")
    counters = list(registry.counters())
    if counters:
        if lines:
            lines.append("")
        lines.append(f"{'counter':<32} {'value':>12}")
        for c in counters:
            lines.append(f"{c.name:<32} {c.value:>12}")
    histograms = list(registry.histograms())
    if histograms:
        if lines:
            lines.append("")
        lines.append(f"{'histogram':<32} {'count':>8} {'mean':>12} "
                     f"{'p95':>12} {'max':>12}")
        for h in histograms:
            lines.append(f"{h.name:<32} {h.count:>8} {h.mean:>12.2f} "
                         f"{h.percentile(95):>12.2f} {h.max:>12.2f}")
    return "\n".join(lines)
