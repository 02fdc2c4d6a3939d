"""System-level model substrate: processes, channels, orderings, generators.

This package is the reproduction's representation of a communication-centric
SoC specification (the paper's Fig. 1 / Fig. 2 view): a
:class:`~repro.core.system.SystemGraph` of concurrent processes joined by
blocking point-to-point channels, plus the per-process get/put statement
orders (:class:`~repro.core.system.ChannelOrdering`) that the methodology
optimizes.
"""

from repro.core.builder import SystemBuilder
from repro.core.dot import system_to_dot
from repro.core.generators import (
    fork_join,
    mesh_soc,
    motivating_deadlock_ordering,
    motivating_example,
    motivating_optimal_ordering,
    motivating_suboptimal_ordering,
    pipeline,
    ring_soc,
    synthetic_soc,
)
from repro.core.serialization import (
    load_ordering,
    load_system,
    ordering_to_dict,
    save_ordering,
    save_system,
    system_from_dict,
    system_to_dict,
)
from repro.core.system import ChannelOrdering, SystemGraph
from repro.core.validation import validate_system

__all__ = [
    "ChannelOrdering",
    "SystemBuilder",
    "SystemGraph",
    "fork_join",
    "load_ordering",
    "load_system",
    "mesh_soc",
    "motivating_deadlock_ordering",
    "motivating_example",
    "motivating_optimal_ordering",
    "motivating_suboptimal_ordering",
    "ordering_to_dict",
    "pipeline",
    "ring_soc",
    "save_ordering",
    "save_system",
    "synthetic_soc",
    "system_from_dict",
    "system_to_dict",
    "system_to_dot",
    "validate_system",
]
