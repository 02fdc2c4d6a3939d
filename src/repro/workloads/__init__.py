"""Generated workload suite: seeded streaming design families.

Each family is a pure function of ``(seed, size)`` built on
:mod:`repro.dsl`, so workloads regenerate bit-identically anywhere —
see :mod:`repro.workloads.suite` for the catalog and ``ermes gen`` for
the CLI front end.
"""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.workloads.suite import (
        FAMILIES as FAMILIES,
        Workload as Workload,
        family_names as family_names,
        generate as generate,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".suite": ("FAMILIES", "Workload", "family_names", "generate"),
    })
