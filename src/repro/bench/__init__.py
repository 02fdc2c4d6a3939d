"""Benchmark-harness support: the experiment registry."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.bench.registry import format_registry as format_registry
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".registry": ("format_registry",),
    })
