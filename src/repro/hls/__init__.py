"""HLS micro-architecture substrate: implementations, Pareto sets, knobs,
and channel-latency characterization."""

from repro.hls.bus import WidthResult, optimize_widths
from repro.hls.implementation import Implementation
from repro.hls.knobs import KnobSpace, synthesize_pareto_set
from repro.hls.pareto import ImplementationLibrary, ParetoSet

__all__ = [
    "Implementation",
    "ImplementationLibrary",
    "KnobSpace",
    "ParetoSet",
    "WidthResult",
    "optimize_widths",
    "synthesize_pareto_set",
]
