"""The public surface is what code outside each package reads.

Each package's ``__all__`` lists the names that ``src/``, the benchmarks,
the examples, README or an executed docs block import through the
package, plus the public types those names return or raise.  The pin is
docs/API.md: for every section headed ``— `repro.X```, the identifiers
in the first column of its first table are exactly ``repro.X.__all__``,
so adding an export is a visible diff there.  A name left off
``__all__`` must not stay reachable through the package either: no
package ``__init__`` may import it from one of its own submodules, and
no package may hold any public attribute outside its ``__all__`` but
its submodules (so a package keeps its implementation in a submodule,
not in ``__init__``).
"""

from __future__ import annotations

import __future__
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
API = ROOT / "docs" / "API.md"

#: Upper bound on the exports summed over every package.
MAX_EXPORTS = 250

SECTION = re.compile(r"^## .* — `(repro(?:\.\w+)*)`\s*$")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _packages() -> dict[str, list[str]]:
    """Every package that declares ``__all__``, root included."""
    packages = {"repro": list(repro.__all__)}
    for info in pkgutil.walk_packages([str(PACKAGE)], "repro."):
        if info.ispkg:
            module = importlib.import_module(info.name)
            if hasattr(module, "__all__"):
                packages[info.name] = list(module.__all__)
    return packages


def _documented() -> dict[str, list[str]]:
    """Section module -> the identifiers of its first table's first column."""
    documented: dict[str, list[str]] = {}
    section = None
    in_table = in_fence = False
    for line in API.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        if line.startswith("#"):
            match = SECTION.match(line)
            section = match.group(1) if match else None
            in_table = False
            if section is not None:
                assert section not in documented, f"two sections for {section}"
                documented[section] = []
            continue
        if section is None:
            continue
        if line.startswith("|"):
            in_table = True
            first = line.split("|")[1].strip()
            if first in ("Item", "") or set(first) <= {"-"}:
                continue
            names = re.findall(r"`([^`]*)`", first)
            assert names, f"{section}: no identifier in {first!r}"
            for name in names:
                assert IDENTIFIER.fullmatch(name), f"{section}: {name!r}"
            documented[section].extend(names)
        elif in_table:
            section = None  # only the first table of a section pins
    return documented


def test_api_md_pins_every_export_list():
    packages = _packages()
    documented = _documented()
    assert sorted(documented) == sorted(packages)
    for name, exports in packages.items():
        listed = documented[name]
        assert len(listed) == len(set(listed)), f"{name}: a name twice"
        assert sorted(listed) == sorted(exports), name


def _own_imports(path: Path, package: str):
    """Names a package ``__init__`` binds at import time from its own
    submodules."""
    for node in ast.parse(path.read_text()).body:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").startswith(package + ".")
        ):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_package_reexports_an_unlisted_name():
    offenders = []
    for package, exports in _packages().items():
        path = PACKAGE.joinpath(*package.split(".")[1:], "__init__.py")
        offenders += [
            f"{package}:{lineno} {name}"
            for lineno, name in _own_imports(path, package)
            if name not in exports
        ]
    assert offenders == []


def test_no_package_exposes_a_public_name_outside_all():
    offenders = [
        f"{package}.{name}"
        for package, exports in _packages().items()
        for name, value in vars(importlib.import_module(package)).items()
        if not name.startswith("_")
        and name not in exports
        and not inspect.ismodule(value)
        and not isinstance(value, __future__._Feature)  # ``annotations``
    ]
    assert offenders == []


def test_the_surface_stays_small():
    packages = _packages()
    assert sum(len(exports) for exports in packages.values()) <= MAX_EXPORTS
    assert len(packages["repro"]) <= 30
