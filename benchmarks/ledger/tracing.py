"""In-memory span tracing for the ledger's traced repetition.

The benchmark records spans from outside the program: :func:`install`
replaces each layer function at the module or class attribute its caller
looks it up through, so ``src/`` stays untouched.  Spans aggregate per
``(parent, name)`` into a count, a total and a self time, where self time
is the total minus the time spent in child spans.  Every span opens under
the repetition's root span, so the self times of all spans (the root's
own self time being the unattributed remainder) sum to the root's wall
time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``(module, attribute path, span name)`` for every wrapped layer
#: function.  The module is the one the *caller* looks the name up in:
#: ``repro.dse.explorer`` imported ``analyze_system`` by name, so that is
#: where the explorer's analyses are intercepted.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("repro.dse.explorer", "Explorer.run", "dse.explorer"),
    ("repro.dse.explorer", "analyze_system", "perf.analyze"),
    ("repro.dse.explorer", "channel_ordering", "ordering.channel_ordering"),
    ("repro.dse.explorer", "area_recovery_problem", "dse.problem"),
    ("repro.dse.explorer", "timing_optimization_problem", "dse.problem"),
    ("repro.dse.explorer", "process_latency_caps", "dse.problem"),
    ("repro.ilp.branch_bound", "solve", "ilp.solve"),
    ("repro.perf.engine", "lower", "ir.lower"),
    ("repro.perf.engine", "build_structure", "perf.build_structure"),
    ("repro.perf.engine", "analyze_event_graph", "tmg.analyze_event_graph"),
    ("repro.perf.incremental", "StructureEntry.instantiate", "perf.instantiate"),
    ("repro.model.performance", "build_tmg", "model.build_tmg"),
    ("repro.model.performance", "analyze", "tmg.analyze"),
    ("repro.lint", "preflight", "lint.preflight"),
    ("repro.ir", "lower", "ir.lower"),
    ("repro.absint", "analyze", "absint.analyze"),
    ("repro.absint", "check_certificate", "absint.check_certificate"),
    ("repro.sym", "analyze_symmetry", "sym.analyze_symmetry"),
    ("repro.sym.states", "StateSymmetry.canonicalize", "sym.canonicalize"),
    ("repro.verify.checker", "verify_ordering", "verify.verify_ordering"),
    ("repro.verify.checker", "stubborn_set", "verify.stubborn_set"),
    ("repro.verify.semantics", "TransitionSystem.successor", "verify.successor"),
    ("repro.sim", "Simulator.run", "sim.simulator_run"),
    ("repro.sim", "BatchSimulator.run", "sim.batch_run"),
)

#: Modules every repetition imports during set-up, traced or not, so that
#: installing the wrappers never moves import time into a measured call.
MODULES: tuple[str, ...] = tuple(dict.fromkeys(module for module, _, _ in WRAPS))


class Tracer:
    """Aggregating span recorder; one per traced repetition."""

    def __init__(self) -> None:
        #: ``(parent, name) -> [count, total_s, self_s]``.
        self.stats: dict[tuple[str, str], list[Any]] = {}
        #: Counts recorded at span boundaries (e.g. ILP nodes).
        self.counts: dict[str, int] = {}
        self._stack: list[list[Any]] = []  # [name, start, child_s]

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        total = end - start
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][2] += total
        row = self.stats.setdefault((parent, name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += total
        row[2] += total - child

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` inside a span named ``name``."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def rows(self) -> list[list[Any]]:
        """``[parent, name, count, total_s, self_s]`` per span edge."""
        return [
            [parent, name, *row] for (parent, name), row in sorted(self.stats.items())
        ]


def _count_ilp_nodes(tracer: Tracer, solution: Any) -> None:
    tracer.count("ilp.nodes", solution.nodes)


_ON_RESULT = {"ilp.solve": _count_ilp_nodes}


def install(tracer: Tracer) -> None:
    """Wrap every :data:`WRAPS` entry for the rest of the process."""
    for module_name, path, span_name in WRAPS:
        owner: Any = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        setattr(
            owner,
            attribute,
            tracer.wrap(
                getattr(owner, attribute), span_name, _ON_RESULT.get(span_name)
            ),
        )


@contextmanager
def no_span(name: str) -> Iterator[None]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    yield
