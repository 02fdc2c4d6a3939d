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

from repro.core import (
    ChannelOrdering,
    SystemBuilder,
    motivating_deadlock_ordering,
    motivating_example,
    motivating_suboptimal_ordering,
    synthetic_soc,
)
from repro.dse import SystemConfiguration
from repro.errors import SimulationDeadlock
from repro.hls import ImplementationLibrary, synthesize_pareto_set
from repro.lint import lint_system
from repro.model import analyze_system, deadlock_cycle
from repro.ordering import (
    channel_ordering,
    declaration_ordering,
    exhaustive_search,
)
from repro.sim import simulate
from repro.sizing import minimize_buffers

__version__ = "0.1.0"

__all__ = [
    "ChannelOrdering",
    "ImplementationLibrary",
    "SimulationDeadlock",
    "SystemBuilder",
    "SystemConfiguration",
    "analyze_system",
    "channel_ordering",
    "deadlock_cycle",
    "declaration_ordering",
    "exhaustive_search",
    "lint_system",
    "minimize_buffers",
    "motivating_deadlock_ordering",
    "motivating_example",
    "motivating_suboptimal_ordering",
    "simulate",
    "synthesize_pareto_set",
    "synthetic_soc",
]
