"""FIFO buffer sizing: the complementary problem to channel ordering."""

from repro.sizing.capacity import SizingResult, minimize_buffers, size_buffers

__all__ = [
    "SizingResult",
    "minimize_buffers",
    "size_buffers",
]
