"""System-level performance analysis of Timed Marked Graphs (Section 3).

The façade :func:`analyze` ties the pieces together: liveness check,
maximum-cycle-ratio computation with the selected engine, and a
:class:`PerformanceReport` carrying the quantities the methodology consumes
— cycle time, throughput, and the critical cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.errors import NotLiveError, ReproError
from repro.tmg.deadlock import find_token_free_cycle
from repro.tmg.enumeration import maximum_cycle_ratio_enumerated
from repro.tmg.event_graph import EventGraph, build_event_graph
from repro.tmg.graph import TimedMarkedGraph
from repro.tmg.howard import maximum_cycle_ratio
from repro.tmg.lawler import maximum_cycle_ratio_lawler

Number = Union[Fraction, float]


class Engine(enum.Enum):
    """Available cycle-time engines.

    ``HOWARD`` is the paper's choice (polynomial, fast in practice).
    ``LAWLER`` is a parametric binary search, ``ENUMERATION`` the exact
    brute force; both serve as independent oracles.
    """

    HOWARD = "howard"
    LAWLER = "lawler"
    ENUMERATION = "enumeration"


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
        engine: Which engine produced the numbers.
    """

    cycle_time: Number
    critical_cycle: tuple[str, ...]
    critical_places: tuple[str, ...]
    engine: Engine

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
    tmg: TimedMarkedGraph,
    engine: Engine | str = Engine.HOWARD,
    exact: bool = True,
) -> PerformanceReport:
    """Compute cycle time and critical cycle of a live TMG.

    Args:
        tmg: The timed marked graph (analyzed under its *initial* marking).
        engine: Cycle-time engine; see :class:`Engine`.
        exact: Report the cycle time as a ``Fraction`` (Howard and
            enumeration are exact either way and return the float of the
            exact ratio otherwise; Lawler snaps to the nearest valid
            rational in this mode).

    Raises:
        NotLiveError: The TMG has a token-free cycle (deadlock).
        ReproError: The TMG is acyclic, which cannot arise from the
            Section 3 construction and indicates a malformed model.
    """
    return analyze_event_graph(
        build_event_graph(tmg),
        engine=engine,
        exact=exact,
        name=tmg.name,
    )


def analyze_event_graph(
    graph: EventGraph,
    engine: Engine | str = Engine.HOWARD,
    exact: bool = True,
    name: str = "tmg",
    check_live: bool = True,
) -> PerformanceReport:
    """:func:`analyze` on an already-contracted event graph.

    This is the entry point of the incremental analysis path
    (:mod:`repro.perf`): liveness depends only on the graph structure and
    marking, never on delays, so a caller that patches edge delays between
    calls can skip the token-free-cycle scan with ``check_live=False``
    after establishing it once.
    """
    engine = Engine(engine)

    if check_live:
        cycle = find_token_free_cycle(graph)
        if cycle is not None:
            raise NotLiveError(
                f"TMG {name!r} is not live: token-free cycle through "
                + " -> ".join(cycle),
                cycle=cycle,
            )

    if engine is Engine.HOWARD:
        result = maximum_cycle_ratio(graph, exact=exact)
        if result is None:
            raise ReproError(f"TMG {name!r} has no cycles; cycle time undefined")
        return PerformanceReport(
            cycle_time=result.ratio,
            critical_cycle=result.cycle,
            critical_places=result.places,
            engine=engine,
        )
    if engine is Engine.LAWLER:
        ratio = maximum_cycle_ratio_lawler(graph, exact=exact)
        if ratio is None:
            raise ReproError(f"TMG {name!r} has no cycles; cycle time undefined")
        return PerformanceReport(
            cycle_time=ratio,
            critical_cycle=(),
            critical_places=(),
            engine=engine,
        )
    best = maximum_cycle_ratio_enumerated(graph)
    if best is None:
        raise ReproError(f"TMG {name!r} has no cycles; cycle time undefined")
    ratio, witness = best
    return PerformanceReport(
        cycle_time=ratio if exact else float(ratio),
        critical_cycle=witness.nodes,
        critical_places=witness.places,
        engine=engine,
    )


def cycle_time(
    tmg: TimedMarkedGraph,
    engine: Engine | str = Engine.HOWARD,
    exact: bool = True,
) -> Number:
    """Shorthand for ``analyze(...).cycle_time``."""
    return analyze(tmg, engine=engine, exact=exact).cycle_time
