"""Benchmark-harness support: the experiment registry."""

from repro.bench.registry import format_registry

__all__ = [
    "format_registry",
]
