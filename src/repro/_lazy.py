"""Lazy package roots: one PEP 562 export table per package.

A package root lists its public names in a table ``{module: names}`` and
binds ``__all__, __getattr__ = exports(__name__, table)``.  Importing the
root then runs no submodule; the first lookup of a name (``pkg.name`` or
``from pkg import name``) imports the module that defines it and binds
the name in the root's globals, so every later lookup is a plain global
lookup that never reaches ``__getattr__``.  A cold process thus compiles
and runs only the modules it reaches.

Type checkers read the root's ``if typing.TYPE_CHECKING:`` block instead,
which imports every name of the table as ``name as name`` (an explicit
re-export under ``mypy --strict``); ``tests/integration/
test_public_surface.py`` keeps that mirror, the table and ``__all__``
naming the same set.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for the package root named ``package``.

    ``table`` maps a module, absolute or relative to ``package``
    (``".engine"``), to the names the root exports from it.  A name that
    is the module's own last component (``{".branch_bound":
    ("branch_bound",)}``) exports the module itself.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(where[name], package)
        value = module if module.__name__ == f"{package}.{name}" else getattr(
            module, name
        )
        namespace[name] = value
        return value

    return sorted(where), __getattr__
