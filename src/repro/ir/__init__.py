"""``repro.ir`` — the lowered core IR shared by sim, TMG, verify, and lint.

Compile a ``(SystemGraph, ChannelOrdering)`` pair once with
:func:`lower`; every downstream analysis executes or translates the
resulting :class:`LoweredIR` instead of re-interpreting the object model.
Depends only on ``repro.core`` and ``repro.errors`` — everything else in
the stack sits above this package (see ``docs/ARCHITECTURE.md``).
"""

from repro.ir.lowering import clear_lowering_cache, lower
from repro.ir.program import (
    KIND_ORDER,
    OP_COMPUTE,
    OP_GET,
    OP_NAMES,
    OP_PUT,
    LoweredIR,
)

__all__ = [
    "KIND_ORDER",
    "OP_COMPUTE",
    "OP_GET",
    "OP_NAMES",
    "OP_PUT",
    "LoweredIR",
    "clear_lowering_cache",
    "lower",
]
