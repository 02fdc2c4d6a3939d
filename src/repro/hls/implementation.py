"""Micro-architecture implementations: the unit of HLS design choice.

Running HLS on one process with different knob settings (loop unrolling,
loop pipelining, resource sharing, ...) yields alternative implementations
that trade computation latency against area.  The methodology consumes only
the ``(latency, area)`` pairs of the Pareto-optimal ones (Section 5); the
knobs are retained for provenance and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ValidationError


@dataclass(frozen=True)
class Implementation:
    """One synthesized micro-architecture of a process.

    Attributes:
        name: Identifier unique within the process's implementation set.
        latency: Computation-phase latency in clock cycles.
        area: Area occupation in µm² (the unit only matters relatively;
            the MPEG-2 case study reports mm² = 1e6 µm²).
        knobs: The HLS knob settings that produced this point.
    """

    name: str
    latency: int
    area: float
    knobs: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValidationError(
                f"implementation {self.name!r}: latency must be >= 0"
            )
        if self.area < 0:
            raise ValidationError(f"implementation {self.name!r}: area must be >= 0")

    def dominates(self, other: "Implementation") -> bool:
        """Pareto dominance: no worse on both axes, better on at least one."""
        if self.latency > other.latency or self.area > other.area:
            return False
        return self.latency < other.latency or self.area < other.area
