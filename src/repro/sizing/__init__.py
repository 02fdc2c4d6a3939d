"""FIFO buffer sizing: the complementary problem to channel ordering."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.sizing.capacity import (
        SizingResult as SizingResult,
        minimize_buffers as minimize_buffers,
        size_buffers as size_buffers,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".capacity": ("SizingResult", "minimize_buffers", "size_buffers"),
    })
