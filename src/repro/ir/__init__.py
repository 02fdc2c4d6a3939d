"""``repro.ir`` — the lowered core IR shared by sim, TMG, verify, and lint.

Compile a ``(SystemGraph, ChannelOrdering)`` pair once with
:func:`lower`; every downstream analysis executes or translates the
resulting :class:`LoweredIR` instead of re-interpreting the object model.
Depends only on ``repro.core`` and ``repro.errors`` — everything else in
the stack sits above this package (see ``docs/ARCHITECTURE.md``).
"""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.ir.lowering import (
        clear_lowering_cache as clear_lowering_cache,
        lower as lower,
    )
    from repro.ir.program import (
        KIND_ORDER as KIND_ORDER,
        OP_COMPUTE as OP_COMPUTE,
        OP_GET as OP_GET,
        OP_NAMES as OP_NAMES,
        OP_PUT as OP_PUT,
        LoweredIR as LoweredIR,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".lowering": ("clear_lowering_cache", "lower"),
        ".program": (
            "KIND_ORDER", "OP_COMPUTE", "OP_GET", "OP_NAMES", "OP_PUT", "LoweredIR",
        ),
    })
