"""The public surface is what code outside each package reads.

Each package's ``__all__`` lists the names that ``src/``, the benchmarks,
the examples, README or an executed docs block import through the
package, plus the public types those names return or raise.  The pin is
docs/API.md: for every section headed ``— `repro.X```, the identifiers
in the first column of its first table are exactly ``repro.X.__all__``,
so adding an export is a visible diff there.  A name left off
``__all__`` must not stay reachable through the package either: no
package ``__init__`` may import it from one of its own submodules, list
it in its export table or in that table's ``TYPE_CHECKING`` mirror, and
no package may hold any public attribute outside its ``__all__`` but
its submodules (so a package keeps its implementation in a submodule,
not in ``__init__``).

A lazy package root (``repro._lazy``) has no import lines to read: its
table, its mirror and its ``__all__`` must name the same set, each name
from the same module, and every export must resolve through the root to
the object a module below ``repro`` defines.
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

#: Package roots that import their exports eagerly (docs/API.md says why);
#: every other root is a lazy export table.
EAGER = {"repro.sim", "repro.tmg", "repro.verify"}

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


def _bindings(path: Path, package: str) -> dict[str, list[tuple[int, str, str]]]:
    """``(lineno, name, module)`` for every name a package ``__init__``
    binds, by kind: ``"import"``, imported at import time from one of its
    own submodules; ``"mirror"``, imported in its ``TYPE_CHECKING`` block;
    ``"table"``, listed in its ``_lazy.exports`` table.  ``module`` is the
    absolute name of the module the name comes from (the submodule itself
    for an exported submodule)."""
    found: dict[str, list[tuple[int, str, str]]] = {
        "import": [], "mirror": [], "table": [],
    }
    for node in ast.parse(path.read_text()).body:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").startswith(package + ".")
        ):
            for alias in node.names:
                found["import"].append(
                    (node.lineno, alias.asname or alias.name, node.module or "")
                )
        if not (
            isinstance(node, ast.If)
            and ast.unparse(node.test) == "typing.TYPE_CHECKING"
        ):
            continue
        for mirror in node.body:
            assert isinstance(mirror, ast.ImportFrom), ast.dump(mirror)
            for alias in mirror.names:
                # ``name as name``: an explicit re-export under mypy --strict.
                assert alias.asname == alias.name, f"{package}: {alias.name}"
                module = mirror.module or ""
                if module == package:
                    module = f"{package}.{alias.name}"
                found["mirror"].append((mirror.lineno, alias.name, module))
        for statement in node.orelse:
            call = statement.value if isinstance(statement, ast.Assign) else None
            if not (
                isinstance(call, ast.Call)
                and ast.unparse(call.func) == "_lazy.exports"
            ):
                continue
            table = call.args[1]
            assert isinstance(table, ast.Dict), ast.dump(table)
            for key, names in zip(table.keys, table.values):
                module = ast.literal_eval(key)
                if module.startswith("."):
                    module = package + module
                for name in ast.literal_eval(names):
                    found["table"].append((key.lineno, name, module))
    return found


def _path(package: str) -> Path:
    return PACKAGE.joinpath(*package.split(".")[1:], "__init__.py")


def test_no_package_reexports_an_unlisted_name():
    offenders = [
        f"{package}:{lineno} {kind} {name}"
        for package, exports in _packages().items()
        for kind, bound in _bindings(_path(package), package).items()
        for lineno, name, _ in bound
        if name not in exports
    ]
    assert offenders == []


def test_lazy_roots_table_mirror_and_all_agree():
    for package, exports in _packages().items():
        found = _bindings(_path(package), package)
        assert bool(found["table"]) == (package not in EAGER), package
        if package in EAGER:
            continue
        assert found["import"] == [], package
        table = sorted((name, module) for _, name, module in found["table"])
        mirror = sorted((name, module) for _, name, module in found["mirror"])
        assert table == mirror, package
        assert sorted(name for name, _ in table) == sorted(exports), package
        assert len(exports) == len(set(exports)), package


def test_every_export_is_defined_in_a_module_below_repro():
    offenders = []
    for package, exports in _packages().items():
        found = _bindings(_path(package), package)
        where = {name: module for _, name, module in found["table"] + found["import"]}
        root = importlib.import_module(package)
        for name in exports:
            value = getattr(root, name)
            module = importlib.import_module(where[name])
            if inspect.ismodule(value):
                ok = value is module and module.__name__ == f"{package}.{name}"
            else:
                defined = module.__name__
                if inspect.isclass(value) or inspect.isfunction(value):
                    defined = value.__module__
                ok = (
                    value is getattr(module, name)
                    and defined == module.__name__
                    and module.__name__.startswith("repro.")
                    and not hasattr(module, "__path__")  # not a package root
                )
            if not ok:
                offenders.append(f"{package}.{name} <- {where[name]}")
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
