"""System-level model substrate: processes, channels, orderings, generators.

This package is the reproduction's representation of a communication-centric
SoC specification (the paper's Fig. 1 / Fig. 2 view): a
:class:`~repro.core.system.SystemGraph` of concurrent processes joined by
blocking point-to-point channels, plus the per-process get/put statement
orders (:class:`~repro.core.system.ChannelOrdering`) that the methodology
optimizes.
"""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.core.builder import SystemBuilder as SystemBuilder
    from repro.core.dot import system_to_dot as system_to_dot
    from repro.core.generators import (
        fork_join as fork_join,
        mesh_soc as mesh_soc,
        motivating_deadlock_ordering as motivating_deadlock_ordering,
        motivating_example as motivating_example,
        motivating_optimal_ordering as motivating_optimal_ordering,
        motivating_suboptimal_ordering as motivating_suboptimal_ordering,
        pipeline as pipeline,
        ring_soc as ring_soc,
        synthetic_soc as synthetic_soc,
    )
    from repro.core.serialization import (
        load_ordering as load_ordering,
        load_system as load_system,
        ordering_to_dict as ordering_to_dict,
        save_ordering as save_ordering,
        save_system as save_system,
        system_from_dict as system_from_dict,
        system_to_dict as system_to_dict,
    )
    from repro.core.system import (
        ChannelOrdering as ChannelOrdering,
        SystemGraph as SystemGraph,
    )
    from repro.core.validation import validate_system as validate_system
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".builder": ("SystemBuilder",),
        ".dot": ("system_to_dot",),
        ".generators": (
            "fork_join", "mesh_soc", "motivating_deadlock_ordering",
            "motivating_example", "motivating_optimal_ordering",
            "motivating_suboptimal_ordering", "pipeline", "ring_soc", "synthetic_soc",
        ),
        ".serialization": (
            "load_ordering", "load_system", "ordering_to_dict", "save_ordering",
            "save_system", "system_from_dict", "system_to_dict",
        ),
        ".system": ("ChannelOrdering", "SystemGraph"),
        ".validation": ("validate_system",),
    })
