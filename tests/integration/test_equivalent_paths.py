"""No option only picks between equivalent paths.

Cycle times are exact ``Fraction``s everywhere, ``check_deadlock`` always
runs its search, ``exhaustive_search`` analyzes every ordering, and the
performance engine's cache bounds are module constants.  Observers read
results: the trajectory's cost lives on ``IterationRecord``, and a
simulator's events reach its sinks only.  The linter runs one fixed rule
catalog with no engine handed in.  A deadlock and a critical cycle are
decoded to the design by index, next to the marked-graph rows, which
alone spell the transition and place names, and no name is ever parsed
back.  Code that nothing outside the tests called is gone.  This walks
the AST of ``src/repro`` and fails if a parameter that chose between
paths giving the same answer, a second channel for a result, or one of
the deleted modules and functions comes back.  The one sanctioned ``exact`` is
:func:`repro.model.performance.analyze_system`'s, a final ``float()``
that the benchmark ledger still passes.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"

#: Parameters that must not appear on any function.
REMOVED = {
    "use_certificate",
    "sym_dedup",
    "engine_exact",
    "max_results",
    "max_structures",
    "profiler",
    "record_trace",
    "check_live",
}

#: The one function allowed an ``exact`` parameter.
EXACT_ALLOWED = ("repro/model/performance.py", "analyze_system")


def _functions():
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    arguments = node.args
    return [
        arg.arg
        for arg in (
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
            arguments.vararg, arguments.kwarg,
        )
        if arg is not None
    ]


def test_only_analyze_system_takes_exact():
    offenders = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in _functions()
        if "exact" in _parameters(node)
        and (module, node.name) != EXACT_ALLOWED
    ]
    assert offenders == []


def test_the_sanctioned_exact_is_still_there():
    assert any(
        (module, node.name) == EXACT_ALLOWED and "exact" in _parameters(node)
        for module, node in _functions()
    )


def test_no_function_takes_a_removed_option():
    offenders = [
        f"{module}:{node.lineno} {node.name}({name})"
        for module, node in _functions()
        for name in _parameters(node)
        if name in REMOVED
    ]
    assert offenders == []


def test_no_dataclass_field_is_named_record_trace():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and statement.target.id == "record_trace"
    ]
    assert offenders == []


def test_explorer_takes_no_batch_option():
    from repro.dse import Explorer

    parameters = inspect.signature(Explorer.__init__).parameters
    assert not {"batch", "batch_iterations", "profiler"} & set(parameters)


def test_lint_takes_no_registry_or_engine():
    # Scoped to lint: repro.obs.metrics.format_metrics(registry) takes a
    # metrics registry, which is a different thing.
    offenders = [
        f"{module}:{node.lineno} {node.name}({name})"
        for module, node in _functions()
        if module.startswith("repro/lint/")
        for name in _parameters(node)
        if name in ("registry", "perf_engine")
    ]
    assert offenders == []


def test_lint_exports_no_registry_class_or_fix_wrapper():
    import repro.lint

    removed = {"RuleRegistry", "default_registry", "fix_result"}
    assert not removed & (set(repro.lint.__all__) | set(vars(repro.lint)))


#: The marked graph's name scheme, spelled only where the rows are built.
NAME_SCHEME = {
    "CHANNEL_PREFIX",
    "PROCESS_PREFIX",
    "PUT_SUFFIX",
    "GET_SUFFIX",
    "DATA_SUFFIX",
    "CREDIT_SUFFIX",
    "COMPUTE_SUFFIX",
}

#: Second decodings of a deadlock, and the wrapper over the first.
REMOVED_DECODERS = {
    "_strip_prefixes",
    "_explain_edge",
    "witness_statements",
    "is_deadlock_free",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_only_the_builder_names_the_transition_scheme():
    offenders = [
        f"{module}:{node.lineno}"
        for module, tree in _modules()
        if module != "repro/model/build.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in NAME_SCHEME)
        or (isinstance(node, ast.Attribute) and node.attr in NAME_SCHEME)
        or (
            isinstance(node, ast.ImportFrom)
            and NAME_SCHEME & {alias.name for alias in node.names}
        )
    ]
    assert offenders == []


def _names_the_scheme(node: ast.AST | None) -> bool:
    return node is not None and any(
        isinstance(inner, ast.Name) and inner.id in NAME_SCHEME
        for inner in ast.walk(node)
    )


def _is_len_of_the_scheme(node: ast.AST | None) -> bool:
    return node is not None and any(
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "len"
        and any(_names_the_scheme(arg) for arg in inner.args)
        for inner in ast.walk(node)
    )


def test_no_name_is_parsed_by_the_scheme():
    """A name is decoded by index, never matched or cut against the
    scheme, not even in the builder."""
    offenders = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in (
                    "startswith", "endswith", "removeprefix", "removesuffix",
                )
                and any(_names_the_scheme(arg) for arg in node.args)
            ):
                offenders.append(f"{module}:{node.lineno} {node.func.attr}")
            elif isinstance(node, ast.Slice) and any(
                _is_len_of_the_scheme(bound)
                for bound in (node.lower, node.upper, node.step)
            ):
                offenders.append(f"{module}:{node.lineno} slice")
    assert offenders == []


def _bound_names():
    """``(module, line, name)`` for every function or class defined and
    every name imported by ``from ... import`` in ``src/repro``."""
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.lineno, node.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield module, node.lineno, alias.asname or alias.name


def test_no_second_deadlock_decoding_comes_back():
    import repro.absint

    offenders = [
        f"{module}:{line} {name}"
        for module, line, name in _bound_names()
        if name in REMOVED_DECODERS
        or (module.startswith("repro/absint/")
            and name == "find_token_free_cycle")
    ]
    assert offenders == []
    assert not hasattr(repro.absint, "find_token_free_cycle")


#: Modules whose only readers were their own tests: a file format nothing
#: reads, a second path to the buffered model, an ablation transform and a
#: table formatter.
REMOVED_MODULES = {
    "repro/mpeg2/codec/y4m.py",
    "repro/model/nonblocking.py",
    "repro/ordering/feedback.py",
    "repro/bench/tables.py",
}

#: Functions and classes whose only callers were tests.  The all-FIFO
#: model is ``build_tmg(system.with_channel_capacities(...))``, liveness
#: is ``find_token_free_cycle(...) is None``, and a test's memo reset is
#: ``repro.cache.memos()[name].clear()``.
REMOVED_DEFINITIONS = {
    "read_y4m",
    "write_y4m",
    "build_nonblocking_tmg",
    "feedback_first",
    "has_preloaded_channels",
    "format_rows",
    "ChannelSensitivity",
    "_with_channel_latency",
    "channel_sensitivity_report",
    "ProcessUtilization",
    "utilizations",
    "system_from_tables",
    "plot_exploration",
    "to_csv",
    "worst_severity",
    "canonical_hash_of",
    "clear_memo",
    "area_gain",
    "latency_gain",
    "is_live",
    "clear_preflight_cache",
    # One cycle-ratio result, one checked entry point, no decoded views.
    "CycleRatioResult",
    "maximum_cycle_ratio",
    "cycle_time",
    "Edge",
    "succ",
    "strongly_connected_components",
    # The name parsers of a critical cycle, the helpers that spelled the
    # scheme outside the two places that write it, and the verifier's
    # decoded statements.
    "critical_processes",
    "critical_channels",
    "channel_transition",
    "buffered_put_transition",
    "buffered_get_transition",
    "process_transition",
    "statement_place",
    "data_place",
    "credit_place",
    "CommStatement",
    "_statements",
}


def test_no_deleted_module_comes_back():
    assert {m for m in REMOVED_MODULES if (SRC / m).exists()} == set()


def test_no_deleted_function_comes_back():
    offenders = [
        f"{module}:{line} {name}"
        for module, line, name in _bound_names()
        if name in REMOVED_DEFINITIONS
    ]
    assert offenders == []


def test_no_decoded_view_comes_back():
    """Deleted attributes whose names other classes still use."""
    from repro.core import motivating_example
    from repro.model.build import StructureEntry
    from repro.tmg.event_graph import EventGraph
    from repro.verify.semantics import TransitionSystem

    assert not hasattr(EventGraph, "edges")
    assert not hasattr(StructureEntry, "deadlock_cycle")
    ts = TransitionSystem(motivating_example())
    assert not {"chains", "process_names", "buffered_names"} & set(vars(ts))
