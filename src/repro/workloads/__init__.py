"""Generated workload suite: seeded streaming design families.

Each family is a pure function of ``(seed, size)`` built on
:mod:`repro.dsl`, so workloads regenerate bit-identically anywhere —
see :mod:`repro.workloads.suite` for the catalog and ``ermes gen`` for
the CLI front end.
"""

from repro.workloads.suite import FAMILIES, Workload, family_names, generate

__all__ = [
    "FAMILIES",
    "Workload",
    "family_names",
    "generate",
]
