"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §4 for the experiment index) and reports the reproduced numbers
through ``benchmark.extra_info`` as well as stdout (run with ``-s`` to see
the rows).
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from typing import Any, Callable

import pytest

from repro.core import motivating_example
from repro.mpeg2 import build_mpeg2_library, build_mpeg2_system


@pytest.fixture(scope="session")
def motivating():
    return motivating_example()


@pytest.fixture(scope="session")
def mpeg2_system():
    return build_mpeg2_system()


@pytest.fixture(scope="session")
def mpeg2_library():
    return build_mpeg2_library()


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def time_interleaved(
    variants: dict[str, Callable[[], Callable[[], Any]]],
    repeats: int,
    contexts: dict[str, Callable[[], AbstractContextManager[Any]]] | None = None,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Min wall time and last result per variant of a timing ratio.

    Each variant is an untimed set-up that returns the zero-argument call
    to time; ``contexts`` optionally names a context entered around a
    variant's set-up and call.  Each repeat runs every variant once, in
    turn, and the order rotates between repeats, so machine drift hits
    every side of a ratio alike and no variant always runs after the same
    one.
    """
    times: dict[str, list[float]] = {name: [] for name in variants}
    results: dict[str, Any] = {}
    names = list(variants)
    for r in range(repeats):
        for name in names[r % len(names):] + names[:r % len(names)]:
            with (contexts or {}).get(name, nullcontext)():
                run = variants[name]()
                start = time.perf_counter()
                results[name] = run()
                times[name].append(time.perf_counter() - start)
    return {name: min(t) for name, t in times.items()}, results
