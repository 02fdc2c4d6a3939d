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

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.dsl.combinators import (
        butterfly as butterfly,
        mesh as mesh,
        parallel as parallel,
        pipe as pipe,
        replicate as replicate,
        sink_stage as sink_stage,
        source_stage as source_stage,
        stage as stage,
        testbenched as testbenched,
    )
    from repro.dsl.design import Design as Design
    from repro.dsl.sdf import (
        rate_chain as rate_chain,
        streaming_design as streaming_design,
    )
    from repro.dsl.wire import Wire as Wire, wire_for_latency as wire_for_latency
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".combinators": (
            "butterfly", "mesh", "parallel", "pipe", "replicate", "sink_stage",
            "source_stage", "stage", "testbenched",
        ),
        ".design": ("Design",),
        ".sdf": ("rate_chain", "streaming_design"),
        ".wire": ("Wire", "wire_for_latency"),
    })
