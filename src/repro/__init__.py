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
    Channel,
    ChannelOrdering,
    Process,
    ProcessKind,
    SystemBuilder,
    SystemGraph,
    all_orderings,
    fork_join,
    load_ordering,
    load_system,
    motivating_deadlock_ordering,
    motivating_example,
    motivating_optimal_ordering,
    motivating_suboptimal_ordering,
    pipeline,
    save_ordering,
    save_system,
    synthetic_soc,
    system_to_dot,
    validate_system,
)
from repro.dse import (
    ExplorationResult,
    Explorer,
    SystemConfiguration,
    explore,
    iteration_table,
    summarize,
)
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    InfeasibleError,
    NodeLimitError,
    NotLiveError,
    ReproError,
    SimulationDeadlock,
    SimulationError,
    ValidationError,
)
from repro.diagnostics import Diagnostic, LintError, OrderingFix, Severity
from repro.hls import (
    ChannelPhysics,
    Implementation,
    ImplementationLibrary,
    KnobSpace,
    ParetoSet,
    pareto_filter,
    synthesize_pareto_set,
    transfer_latency,
)
from repro.lint import LintResult, lint_system, preflight
from repro.model import (
    SystemPerformance,
    analyze_system,
    build_nonblocking_tmg,
    build_tmg,
    deadlock_cycle,
)
from repro.ordering import (
    channel_ordering,
    channel_ordering_with_labels,
    conservative_ordering,
    declaration_ordering,
    exhaustive_search,
    feedback_first,
    random_ordering,
)
from repro.sim import SimulationResult, Simulator, simulate
from repro.sizing import (
    SizingResult,
    cycle_time_with_capacities,
    minimize_buffers,
    size_buffers,
)
from repro.tmg import (
    PerformanceReport,
    TimedMarkedGraph,
    analyze,
    cycle_time,
    is_live,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChannelOrdering",
    "ChannelPhysics",
    "ConfigurationError",
    "DeadlockError",
    "Diagnostic",
    "ExplorationResult",
    "Explorer",
    "Implementation",
    "ImplementationLibrary",
    "InfeasibleError",
    "NodeLimitError",
    "KnobSpace",
    "LintError",
    "LintResult",
    "NotLiveError",
    "OrderingFix",
    "ParetoSet",
    "PerformanceReport",
    "Process",
    "ProcessKind",
    "ReproError",
    "Severity",
    "SimulationDeadlock",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "SizingResult",
    "SystemBuilder",
    "SystemConfiguration",
    "SystemGraph",
    "SystemPerformance",
    "TimedMarkedGraph",
    "ValidationError",
    "all_orderings",
    "analyze",
    "analyze_system",
    "build_nonblocking_tmg",
    "build_tmg",
    "channel_ordering",
    "channel_ordering_with_labels",
    "conservative_ordering",
    "cycle_time",
    "cycle_time_with_capacities",
    "deadlock_cycle",
    "declaration_ordering",
    "exhaustive_search",
    "explore",
    "feedback_first",
    "fork_join",
    "is_live",
    "iteration_table",
    "lint_system",
    "load_ordering",
    "load_system",
    "minimize_buffers",
    "motivating_deadlock_ordering",
    "motivating_example",
    "motivating_optimal_ordering",
    "motivating_suboptimal_ordering",
    "pareto_filter",
    "pipeline",
    "preflight",
    "random_ordering",
    "save_ordering",
    "save_system",
    "simulate",
    "size_buffers",
    "summarize",
    "synthesize_pareto_set",
    "synthetic_soc",
    "system_to_dot",
    "transfer_latency",
    "validate_system",
]
