"""The built-in rule catalog, one module per ``ERMx``-hundred category.

Importing this package declares every rule in
:func:`repro.lint.registry.catalog`.
"""

from repro.lint.rules import (  # noqa: F401
    absint,
    deadlock,
    hygiene,
    performance,
    structural,
    symmetry,
    verification,
)
