"""Metrics stay ambient: no layer takes or guards a registry by hand.

The instrumented layers record through ``repro.obs.metrics.count`` /
``timed`` / ``observe`` into whichever registry ``collect()`` holds
active.  This walks the AST of ``src/repro`` and fails if the hand
threading comes back: a function parameter named ``metrics``, or a
registry compared with ``None`` outside ``repro/obs/metrics.py``.  The
one sanctioned comparison is on ``active()`` itself, in the few modules
where the recorded value costs work to compute.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"
METRICS_MODULE = "repro/obs/metrics.py"

#: Modules that may test ``active()`` against ``None``, and why.
ACTIVE_GATES = {
    "repro/sim/engine.py": "end-of-run totals sum every lane's dicts",
    "repro/ordering/algorithm.py": "the changed-process diff walks the system",
    "repro/obs/profile.py": "merging the engine's cache counters",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _names_metrics(node: ast.AST) -> bool:
    """``metrics``, ``self._metrics``, ``profiler.metrics`` and the like."""
    if isinstance(node, ast.Name):
        return "metrics" in node.id
    if isinstance(node, ast.Attribute):
        return "metrics" in node.attr
    return False


def _is_active_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "active"
    )


def _active_names(tree: ast.AST) -> set[str]:
    """Names bound to the result of ``active()`` anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_active_call(node.value):
            names.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            )
    return names


def _none_operands(node: ast.Compare) -> list[ast.AST]:
    operands = [node.left, *node.comparators]
    if not any(_is_none(operand) for operand in operands):
        return []
    return [operand for operand in operands if not _is_none(operand)]


def test_no_function_takes_a_metrics_parameter():
    offenders = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            for arg in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg,
            ):
                if arg is not None and arg.arg == "metrics":
                    offenders.append(f"{module}:{node.lineno} {node.name}")
    assert offenders == []


def test_registries_are_compared_with_none_only_through_active():
    offenders = []
    for module, tree in _modules():
        if module == METRICS_MODULE:
            continue
        bound = _active_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in _none_operands(node):
                where = f"{module}:{node.lineno}"
                if _names_metrics(operand):
                    offenders.append(f"{where} threaded registry")
                elif _is_active_call(operand) or (
                    isinstance(operand, ast.Name) and operand.id in bound
                ):
                    if module not in ACTIVE_GATES:
                        offenders.append(f"{where} unlisted active() gate")
    assert offenders == []


def test_every_listed_gate_is_used():
    used = {module for module, tree in _modules() if any(
        _is_active_call(node) for node in ast.walk(tree)
    )}
    assert set(ACTIVE_GATES) <= used
