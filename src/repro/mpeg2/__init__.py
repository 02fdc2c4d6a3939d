"""The MPEG-2 Encoder case study (Table 1): topology, Pareto library,
channel latencies, functional codec, and the simulator binding."""

from repro.mpeg2.functional import FunctionalRun, encode_through_system
from repro.mpeg2.paretos import build_mpeg2_library, m1_selection, m2_selection
from repro.mpeg2.topology import (
    CHANNEL_SPECS,
    build_mpeg2_system,
    channel_latencies,
)

__all__ = [
    "CHANNEL_SPECS",
    "FunctionalRun",
    "build_mpeg2_library",
    "build_mpeg2_system",
    "channel_latencies",
    "encode_through_system",
    "m1_selection",
    "m2_selection",
]
