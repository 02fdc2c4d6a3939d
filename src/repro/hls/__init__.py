"""HLS micro-architecture substrate: implementations, Pareto sets, knobs,
and channel-latency characterization."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.hls.bus import (
        WidthResult as WidthResult,
        optimize_widths as optimize_widths,
    )
    from repro.hls.implementation import Implementation as Implementation
    from repro.hls.knobs import (
        KnobSpace as KnobSpace,
        synthesize_pareto_set as synthesize_pareto_set,
    )
    from repro.hls.pareto import (
        ImplementationLibrary as ImplementationLibrary,
        ParetoSet as ParetoSet,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".bus": ("WidthResult", "optimize_widths"),
        ".implementation": ("Implementation",),
        ".knobs": ("KnobSpace", "synthesize_pareto_set"),
        ".pareto": ("ImplementationLibrary", "ParetoSet"),
    })
