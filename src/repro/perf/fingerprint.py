"""Canonical, content-addressed fingerprints of analysis requests.

The DSE hot loop calls :func:`repro.model.analyze_system` over and over on
configurations that are *values*, not identities: two
:class:`~repro.core.system.SystemGraph` objects with the same processes,
channels, and ordering describe the same timed marked graph and therefore
the same cycle time.  A cache keyed on object identity would miss almost
every repeat (the explorer rebuilds systems freely via
``with_process_latencies``), so keys here are SHA-256 digests of a
canonical rendering of the request's content.

Two fingerprint layers mirror the two reuse granularities:

* the **structure fingerprint** covers everything that shapes the event
  graph — topology, channel parameters (latency, capacity, initial
  tokens), statement ordering, and the system name (which appears in error
  messages) — but *excludes process latencies*.  Calls that differ only in
  latencies (the explorer's common case) share one structure entry and
  reuse its event graph and liveness verdict.
* the **analysis fingerprint** extends the structure fingerprint with the
  effective per-process latencies and the arithmetic mode; it keys the
  full-result cache.

Latencies enter the key as *effective* values
(:func:`repro.model.build.effective_latencies`, the resolution rule
:func:`repro.model.build.build_tmg` uses), so partial override maps hash
identically to their fully spelled-out equivalents.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir import lower
from repro.model.build import effective_latencies

_SEPARATOR = "\x1f"  # unit separator: cannot appear in validated names


def _digest(parts: list[str]) -> str:
    return hashlib.sha256(_SEPARATOR.join(parts).encode("utf-8")).hexdigest()


def structure_fingerprint(
    system: SystemGraph,
    ordering: ChannelOrdering,
) -> str:
    """Digest of the latency-independent shape of an analysis request.

    Invalidation keys: system name, process set (names and kinds), every
    channel's endpoints/latency/capacity/initial-tokens, and the full
    get/put statement order of every process.  Process latencies are
    deliberately absent — see the module docstring.

    The digest *is* :attr:`repro.ir.LoweredIR.structural_hash`: the
    structure cache, the lint cache, and the lowering memo all address the
    same compiled object by the same key, so an analysis served from any
    of them provably describes the IR the simulator and verifier execute.
    """
    return lower(system, ordering).structural_hash


def analysis_fingerprint(
    structure: str,
    latencies: Mapping[str, int],
    exact: bool,
) -> str:
    """Digest identifying one fully specified analysis call.

    Combines the structure fingerprint with the effective latencies and
    the arithmetic mode — the complete set of inputs that can change the
    returned :class:`~repro.model.performance.SystemPerformance`.
    """
    parts = ["analysis:v3", structure, str(exact)]
    for name in sorted(latencies):
        parts.append(f"l:{name}={latencies[name]}")
    return _digest(parts)


def system_fingerprint(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    process_latencies: Mapping[str, int] | None = None,
) -> str:
    """Digest of a system *including* its effective latencies.

    This is the key for derived artifacts that depend on latencies but not
    on the arithmetic mode — e.g. memoized channel orderings
    (:func:`repro.ordering.algorithm.channel_ordering`), whose labels are
    functions of the latencies and the initial statement order.
    """
    if ordering is None:
        ordering = ChannelOrdering.declaration_order(system)
    latencies = effective_latencies(system, process_latencies)
    parts = ["system:v1", structure_fingerprint(system, ordering)]
    for name in sorted(latencies):
        parts.append(f"l:{name}={latencies[name]}")
    return _digest(parts)
