"""ERM3xx — performance lints.

These rules catch throughput loss that is statically visible from the
specification, before any simulation or exploration runs:

* ``ERM301`` — the current statement orders are live but leave cycle time
  on the table versus the Algorithm-1 ordering.  The reported delta is
  Fraction-exact: both cycle times come from
  :func:`~repro.model.performance.analyze_system`.
* ``ERM302`` — a feedback loop whose channels carry no initial tokens
  deadlocks under *every* ordering; only pre-loading data can make it
  live.  (Zero-capacity and buffered channels alike: capacity adds slack
  slots, not data.)
* ``ERM303`` — an HLS implementation library entry is not on its
  process's latency/area Pareto frontier, so no selection step will ever
  pick it and the methodology's frontier assumption is violated.
"""

from __future__ import annotations

from typing import Iterable

from repro.diagnostics import Diagnostic, OrderingFix, Severity
from repro.lint.context import LintContext
from repro.lint.registry import rule


@rule(
    "ERM301",
    "suboptimal-ordering",
    Severity.WARNING,
    "The statement orders are deadlock-free but slower than the "
    "Algorithm-1 ordering; the exact cycle-time delta is reported.",
)
def _erm301(context: LintContext) -> Iterable[Diagnostic]:
    if not context.sound or context.deadlock_witness is not None:
        return
    optimized = context.optimized_ordering
    if optimized is None:
        return
    changed = optimized.differs_from(context.ordering)
    if not changed:
        return
    current = context.performance_of(context.ordering)
    best = context.performance_of(optimized)
    if current is None or best is None:
        return
    delta = current.cycle_time - best.cycle_time
    if delta <= 0:
        return
    gets = {
        p: optimized.gets_of(p)
        for p in changed
        if optimized.gets_of(p) != context.ordering.gets_of(p)
    }
    puts = {
        p: optimized.puts_of(p)
        for p in changed
        if optimized.puts_of(p) != context.ordering.puts_of(p)
    }
    percent = float(delta) / float(current.cycle_time)
    yield Diagnostic(
        rule="ERM301",
        severity=Severity.WARNING,
        message=(
            f"suboptimal statement order: cycle time {current.cycle_time} "
            f"vs {best.cycle_time} under the Algorithm-1 ordering "
            f"(delta {delta}, {percent:.1%} of the cycle time); "
            f"reordering {', '.join(changed)} closes the gap at zero "
            "area cost"
        ),
        location=changed,
        fix=OrderingFix(
            description=(
                f"apply the Algorithm-1 ordering to {', '.join(changed)} "
                f"(cycle time {current.cycle_time} -> {best.cycle_time})"
            ),
            gets=gets,
            puts=puts,
        ),
    )


@rule(
    "ERM302",
    "token-free-feedback-loop",
    Severity.ERROR,
    "A feedback loop carries no initial tokens on any of its channels; "
    "it deadlocks under every statement ordering.  Pre-load one channel "
    "(initial_tokens >= 1).",
)
def _erm302(context: LintContext) -> Iterable[Diagnostic]:
    if not context.structure_ok:
        return
    for loop in context.token_free_topology_loops:
        processes = [n for n in loop if context.system.has_process(n)]
        channels = [n for n in loop if context.system.has_channel(n)]
        yield Diagnostic(
            rule="ERM302",
            severity=Severity.ERROR,
            message=(
                "feedback loop "
                + " -> ".join(loop + (loop[0],))
                + " carries no initial tokens: it deadlocks under every "
                "get/put ordering; pre-load one of "
                + ", ".join(repr(c) for c in channels)
                + " with initial_tokens >= 1 (e.g. an initialized frame "
                "store)"
            ),
            location=tuple(processes) + tuple(channels),
        )


@rule(
    "ERM303",
    "dominated-implementation",
    Severity.WARNING,
    "An implementation-library entry is dominated (or latency-tied and "
    "larger) within its process's Pareto set; selection will never "
    "pick it.",
)
def _erm303(context: LintContext) -> Iterable[Diagnostic]:
    if context.library is None:
        return
    from repro.hls.pareto import pareto_filter

    for pareto in context.library:
        frontier = {p.name for p in pareto_filter(pareto.points)}
        for point in pareto.points:
            if point.name in frontier:
                continue
            dominator = next(
                (
                    p
                    for p in pareto.points
                    if p.name in frontier
                    and p.latency <= point.latency
                    and p.area <= point.area
                ),
                None,
            )
            versus = (
                f" (dominated by {dominator.name!r}: latency "
                f"{dominator.latency} <= {point.latency}, area "
                f"{dominator.area:g} <= {point.area:g})"
                if dominator is not None
                else ""
            )
            yield Diagnostic(
                rule="ERM303",
                severity=Severity.WARNING,
                message=(
                    f"implementation {point.name!r} of process "
                    f"{pareto.process!r} is not Pareto-optimal"
                    + versus
                    + "; drop it or re-characterize the knob setting"
                ),
                location=(pareto.process, point.name),
            )
