"""Incremental event-graph construction for latency-only re-analysis.

The ERMES explorer evaluates many implementation selections of the *same*
system under the *same* ordering: between consecutive ``analyze_system``
calls, only the per-process latencies change.  The expensive parts of an
analysis call — validating the ordering, building the marked graph,
contracting it into the event graph, and scanning for token-free cycles —
depend only on structure, never on delays:

* the set of transitions and places is fixed by topology and ordering;
* every edge's ``tokens`` comes from the initial marking (structural);
* liveness (existence of a token-free cycle) ignores delays entirely;
* only each edge's ``delay`` — the delay of its *target* transition —
  moves, and then only for edges targeting a process's computation
  transition (channel transitions carry the structural channel latency,
  and the get side of a buffered channel is always zero-delay).

:class:`StructureEntry` therefore captures one event-graph skeleton,
contracted from :func:`repro.model.build.marked_places` by the same
:func:`~repro.tmg.event_graph.collapse_places` that
:func:`~repro.tmg.event_graph.build_event_graph` uses, with each edge's
delay bound to a process id or fixed; :meth:`StructureEntry.instantiate`
patches process delays into fresh :class:`~repro.tmg.event_graph.Edge`
values in O(E).  Because node order, per-node edge order, tokens, and
place names are all preserved exactly, running the exact Howard engine on
an instantiated graph is *bit-identical* to running it on a from-scratch
build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.ir import LoweredIR
from repro.model.build import marked_places, marked_transitions
from repro.tmg.deadlock import find_token_free_cycle
from repro.tmg.event_graph import Edge, EventGraph, collapse_places


@dataclass
class StructureEntry:
    """The reusable, latency-independent part of one analysis request."""

    #: The lowered IR this structure was compiled from; its
    #: ``structural_hash`` is the entry's cache key.
    ir: LoweredIR
    nodes: tuple[str, ...]
    #: Per node, its out-edges in build_event_graph order, each with the
    #: pid whose latency is its delay (``None``: the edge's own delay is
    #: structural).
    templates: dict[str, tuple[tuple[Edge, int | None], ...]]
    #: Token-free cycle (deadlock witness) or None — structural, computed once.
    deadlock_cycle: list[str] | None

    def instantiate(self, latencies: Mapping[str, int]) -> EventGraph:
        """The event graph under ``latencies`` (the full effective map of
        :func:`repro.model.build.effective_latencies`)."""
        delays = [latencies[name] for name in self.ir.processes]
        succ = {
            node: [
                edge if pid is None
                else Edge(
                    edge.source, edge.target, edge.tokens, delays[pid], edge.place
                )
                for edge, pid in row
            ]
            for node, row in self.templates.items()
        }
        return EventGraph(nodes=self.nodes, succ=succ)


def build_structure(ir: LoweredIR) -> StructureEntry:
    """Build the shared structure of one lowered configuration.

    Contracts the rows of :func:`~repro.model.build.marked_transitions`
    and :func:`~repro.model.build.marked_places` into the event-graph
    skeleton (process-bound edges carry delay 0 until instantiated) and
    runs the structural liveness scan on it.
    """
    bindings = {t.name: t for t in marked_transitions(ir)}
    nodes = tuple(bindings)
    templates: dict[str, tuple[tuple[Edge, int | None], ...]] = {}
    for node, kept in collapse_places(nodes, marked_places(ir)).items():
        row = []
        for place in kept:
            target = bindings[place.target]
            edge = Edge(
                place.source, place.target, place.tokens, target.delay, place.name
            )
            row.append((edge, target.process))
        templates[node] = tuple(row)
    skeleton = EventGraph(
        nodes=nodes,
        succ={node: [edge for edge, _ in row] for node, row in templates.items()},
    )
    return StructureEntry(
        ir=ir,
        nodes=nodes,
        templates=templates,
        deadlock_cycle=find_token_free_cycle(skeleton),
    )
