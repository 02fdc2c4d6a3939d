"""Compositional design DSL — the "gears" layer over the system model.

Hand-built construction (``SystemBuilder`` call chains, literal channel
latencies) does not scale to communication-centric SoCs and cannot tell
downstream analyses *how* a design was composed.  This package provides
a small typed combinator algebra instead:

* :class:`~repro.dsl.wire.Wire` — per-port payload metadata from which
  channel latency/capacity/tokens are **derived**, never hand-entered;
* :class:`~repro.dsl.design.Design` — the open netlist combinators
  compose, with call-site :class:`~repro.errors.CompositionError`
  diagnostics and a deterministic elaboration contract (declaration
  order = composition order);
* the combinator catalog (:mod:`repro.dsl.combinators`) — ``stage``,
  ``pipe``, ``parallel``/``replicate``, ``fanout``/``join``,
  ``reduce_tree``, ``ring``, ``mesh``, ``butterfly``, ``testbenched``;
* the multirate front end (:mod:`repro.dsl.sdf`) — ``rate_chain`` and
  ``streaming_design``.

Replicating combinators record their replica structure as
:class:`~repro.core.families.DeclaredFamily` claims on the elaborated
system, which :mod:`repro.sym` verifies and spends: ERM701 reports
declared orbit families without rediscovery and the explorer's orbit
dedup seeds its canonical search from them.  See ``docs/DSL.md``.
"""

from repro.dsl.combinators import (
    butterfly,
    mesh,
    parallel,
    pipe,
    replicate,
    sink_stage,
    source_stage,
    stage,
    testbenched,
)
from repro.dsl.design import Design
from repro.dsl.sdf import rate_chain, streaming_design
from repro.dsl.wire import Wire, wire_for_latency

__all__ = [
    "Design",
    "Wire",
    "butterfly",
    "mesh",
    "parallel",
    "pipe",
    "rate_chain",
    "replicate",
    "sink_stage",
    "source_stage",
    "stage",
    "streaming_design",
    "testbenched",
    "wire_for_latency",
]
