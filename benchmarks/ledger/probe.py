"""In-process machine-speed probe.

The shared hosts this ledger runs on change speed under load from other
tenants: a fixed pure-Python loop runs up to twice as slow for seconds at
a time, and the same MPEG-2 exploration measured minutes apart varies by
about 20 % in wall time.  No hardware counters are exposed, so the
repetition measures the machine's speed itself: every ``INTERVAL_S`` a
``SIGALRM`` handler times a fixed ~0.15 ms interpreter kernel.  The mean
kernel time over a stretch of the repetition (one operation, or the
set-up) says how fast the machine ran during it, and
:meth:`SpeedProbe.factor` turns the stretch's wall time into *reference
seconds*: the wall time the same work takes when the kernel runs in
``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import signal
import time
from typing import Any

INTERVAL_S = 0.02
#: Kernel time that defines one reference second: the kernel's usual time
#: on an unloaded 2-vCPU Xeon container with CPython 3.11.
REFERENCE_KERNEL_S = 1.3e-4


def _kernel() -> None:
    total = 0
    table: dict[int, int] = {}
    for i in range(1500):
        total += i * i % 7
        table[i & 63] = total


class SpeedProbe:
    """Samples the kernel time while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Position in the sample stream, to delimit a stretch."""
        return len(self.samples)

    def factor(self, start: int, end: int, default: float = 1.0) -> float:
        """Reference seconds per wall second over samples ``[start, end)``.

        The probe's own share of the wall time (one kernel per interval)
        is removed before rescaling.  A stretch too short to hold a
        sample gets ``default``.
        """
        stretch = self.samples[start:end]
        if not stretch:
            return default
        mean = sum(stretch) / len(stretch)
        return (1 - mean / INTERVAL_S) * REFERENCE_KERNEL_S / mean
