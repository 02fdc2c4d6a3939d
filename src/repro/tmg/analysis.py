"""System-level performance analysis of Timed Marked Graphs (Section 3).

The façade :func:`analyze` ties the pieces together: liveness check,
maximum-cycle-ratio computation with Howard's algorithm, and a
:class:`PerformanceReport` carrying the quantities the methodology consumes
— cycle time, throughput, and the critical cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.errors import NotLiveError, ReproError
from repro.tmg.deadlock import find_token_free_cycle
from repro.tmg.event_graph import EventGraph, build_event_graph
from repro.tmg.graph import TimedMarkedGraph
from repro.tmg.howard import _maximum_cycle_ratio

Number = Union[Fraction, float]


@dataclass(frozen=True)
class PerformanceReport:
    """Result of analyzing one TMG.

    Attributes:
        cycle_time: ``π(G)`` — the average separation between consecutive
            firings of any transition in steady state (Definition 2); the
            reciprocal of the system throughput.
        critical_cycle: Transition names around one critical cycle (a cycle
            whose mean equals the minimum — the throughput bottleneck).
        critical_places: The places along the critical cycle (one per
            step); useful to map the bottleneck back to processes/channels.
    """

    cycle_time: Number
    critical_cycle: tuple[str, ...]
    critical_places: tuple[str, ...]

    @property
    def throughput(self) -> Number:
        """Tokens processed per cycle: ``1 / π(G)``."""
        if self.cycle_time == 0:
            raise ReproError("cycle time is zero; throughput undefined")
        if isinstance(self.cycle_time, Fraction):
            return 1 / self.cycle_time
        return 1.0 / self.cycle_time


def is_deadlocked(tmg: TimedMarkedGraph) -> bool:
    """True iff the TMG has a token-free cycle (infinite cycle time)."""
    return find_token_free_cycle(build_event_graph(tmg)) is not None


def deadlock_witness(tmg: TimedMarkedGraph) -> list[str] | None:
    """A token-free cycle as transition names, or ``None`` if live."""
    return find_token_free_cycle(build_event_graph(tmg))


def analyze(
    graph: EventGraph | TimedMarkedGraph, exact: bool = True
) -> PerformanceReport:
    """Compute cycle time and critical cycle of a live TMG.

    Args:
        graph: The event graph of the model (e.g. ``build_tmg(...).graph``),
            or a timed marked graph, which is contracted first; either is
            analyzed under its *initial* marking.
        exact: Report the cycle time as a ``Fraction``; otherwise as the
            float of the same exact ratio.

    Raises:
        NotLiveError: The TMG has a token-free cycle (deadlock).
        ReproError: The TMG is acyclic, which cannot arise from the
            Section 3 construction and indicates a malformed model.
    """
    if isinstance(graph, TimedMarkedGraph):
        graph = build_event_graph(graph)
    return analyze_event_graph(graph, exact=exact)


def analyze_event_graph(
    graph: EventGraph,
    exact: bool = True,
    check_live: bool = True,
) -> PerformanceReport:
    """:func:`analyze` on an already-contracted event graph.

    This is the entry point of the incremental analysis path
    (:mod:`repro.perf`): liveness depends only on the graph structure and
    marking, never on delays, so a caller that patches edge delays between
    calls can skip the token-free-cycle scan with ``check_live=False``
    after establishing it once.
    """
    if check_live:
        cycle = find_token_free_cycle(graph)
        if cycle is not None:
            raise NotLiveError(
                f"TMG {graph.name!r} is not live: token-free cycle through "
                + " -> ".join(cycle),
                cycle=cycle,
            )

    result = _maximum_cycle_ratio(graph, exact)
    if result is None:
        raise ReproError(f"TMG {graph.name!r} has no cycles; cycle time undefined")
    return PerformanceReport(
        cycle_time=result.ratio,
        critical_cycle=result.cycle,
        critical_places=result.places,
    )


def cycle_time(tmg: TimedMarkedGraph, exact: bool = True) -> Number:
    """Shorthand for ``analyze(...).cycle_time``."""
    return analyze(tmg, exact=exact).cycle_time
