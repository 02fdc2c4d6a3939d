"""The MPEG-2 Encoder case study (Table 1): topology, Pareto library,
channel latencies, functional codec, and the simulator binding."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.mpeg2.functional import (
        FunctionalRun as FunctionalRun,
        encode_through_system as encode_through_system,
    )
    from repro.mpeg2.paretos import (
        build_mpeg2_library as build_mpeg2_library,
        m1_selection as m1_selection,
        m2_selection as m2_selection,
    )
    from repro.mpeg2.topology import (
        CHANNEL_SPECS as CHANNEL_SPECS,
        build_mpeg2_system as build_mpeg2_system,
        channel_latencies as channel_latencies,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".functional": ("FunctionalRun", "encode_through_system"),
        ".paretos": ("build_mpeg2_library", "m1_selection", "m2_selection"),
        ".topology": ("CHANNEL_SPECS", "build_mpeg2_system", "channel_latencies"),
    })
