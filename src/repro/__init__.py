"""ERMES reproduction: compositional HLS of communication-centric SoCs.

A from-scratch Python implementation of Di Guglielmo, Pilato & Carloni,
*A Design Methodology for Compositional High-Level Synthesis of
Communication-Centric SoCs* (DAC 2014): the Timed-Marked-Graph performance
model, the deadlock-free channel-ordering algorithm, and the ERMES
design-space-exploration methodology, together with every substrate they
need (system model, discrete-event simulator, HLS micro-architecture
model, ILP solver, and the MPEG-2 encoder case study).

Typical use::

    from repro import (
        SystemBuilder, analyze_system, channel_ordering, explore,
    )

    system = (
        SystemBuilder("soc")
        .source("src").process("A", latency=5).process("B", latency=3)
        .sink("snk")
        .channel("i", "src", "A", latency=2)
        .channel("x", "A", "B", latency=1)
        .channel("o", "B", "snk", latency=1)
        .build()
    )
    ordering = channel_ordering(system)          # Algorithm 1
    performance = analyze_system(system, ordering)  # TMG + Howard
    print(performance.cycle_time, performance.critical_processes)
"""

import typing

from repro import _lazy

__version__ = "0.1.0"

if typing.TYPE_CHECKING:
    from repro.core.builder import SystemBuilder as SystemBuilder
    from repro.core.generators import (
        motivating_deadlock_ordering as motivating_deadlock_ordering,
        motivating_example as motivating_example,
        motivating_suboptimal_ordering as motivating_suboptimal_ordering,
        synthetic_soc as synthetic_soc,
    )
    from repro.core.system import ChannelOrdering as ChannelOrdering
    from repro.dse.config import SystemConfiguration as SystemConfiguration
    from repro.errors import SimulationDeadlock as SimulationDeadlock
    from repro.hls.knobs import synthesize_pareto_set as synthesize_pareto_set
    from repro.hls.pareto import ImplementationLibrary as ImplementationLibrary
    from repro.lint.engine import lint_system as lint_system
    from repro.model.performance import (
        analyze_system as analyze_system,
        deadlock_cycle as deadlock_cycle,
    )
    from repro.ordering.algorithm import channel_ordering as channel_ordering
    from repro.ordering.baselines import declaration_ordering as declaration_ordering
    from repro.ordering.exhaustive import exhaustive_search as exhaustive_search
    from repro.sim.engine import simulate as simulate
    from repro.sizing.capacity import minimize_buffers as minimize_buffers
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".core.builder": ("SystemBuilder",),
        ".core.generators": (
            "motivating_deadlock_ordering", "motivating_example",
            "motivating_suboptimal_ordering", "synthetic_soc",
        ),
        ".core.system": ("ChannelOrdering",),
        ".dse.config": ("SystemConfiguration",),
        ".errors": ("SimulationDeadlock",),
        ".hls.knobs": ("synthesize_pareto_set",),
        ".hls.pareto": ("ImplementationLibrary",),
        ".lint.engine": ("lint_system",),
        ".model.performance": ("analyze_system", "deadlock_cycle"),
        ".ordering.algorithm": ("channel_ordering",),
        ".ordering.baselines": ("declaration_ordering",),
        ".ordering.exhaustive": ("exhaustive_search",),
        ".sim.engine": ("simulate",),
        ".sizing.capacity": ("minimize_buffers",),
    })
