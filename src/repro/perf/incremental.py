"""Incremental event-graph construction for latency-only re-analysis.

The ERMES explorer evaluates many implementation selections of the *same*
system under the *same* ordering: between consecutive ``analyze_system``
calls, only the per-process latencies change.  The expensive parts of an
analysis call — validating the ordering, lowering the marked graph,
contracting it into the event graph, and scanning for token-free cycles —
depend only on structure, never on delays, so
:class:`~repro.model.build.StructureEntry` holds them once and
:meth:`~repro.model.build.StructureEntry.instantiate` fills in the
latencies in O(E).  Both live in :mod:`repro.model.build`, beside the
Section-3 construction, and ``build_tmg`` uses them too, so the cached and
the uncached analysis run on the same integer event graph.

This module stays as a re-export while the benchmark ledger's tracer
patches ``StructureEntry.instantiate`` through it (until its ``WRAPS``
table is replaced).
"""

from repro.model.build import StructureEntry, build_structure

__all__ = ["StructureEntry", "build_structure"]
