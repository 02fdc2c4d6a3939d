"""Every memo answers as its uncached call does, in every declaration order.

The five ``ermes gen`` families at seeds 0–2, each under its Algorithm 1
ordering and three seeded per-process shuffles
(:func:`~repro.ordering.baselines.random_ordering`), some live and some
deadlocked.  Each configuration is declared twice more, its processes and
channels shuffled.  Every memoized entry point is warmed with the first
declaration and then called on the second; the answer must equal the
same call on the second with every memo cleared.

Answers depend on declaration order: Howard breaks ties between equal
critical cycles by node order, absint's circular wait starts where its
search does, and the critical node and edge ids are positions in the
caller's graph.  So a memo that served one declaration's answer to
another would show here.
"""

import random

import pytest

from repro.absint import analyze
from repro.cache import memos
from repro.core import system_from_dict, system_to_dict
from repro.diagnostics import LintError
from repro.errors import DeadlockError
from repro.ir import lower
from repro.lint import lint_system, preflight, render_text
from repro.model import analyze_system
from repro.ordering import channel_ordering
from repro.ordering.baselines import random_ordering
from repro.perf import PerformanceEngine
from repro.sym import analyze_symmetry
from repro.workloads import FAMILIES, generate

SEEDS = (0, 1, 2)
#: Random per-process orderings per design, beside Algorithm 1's.
SHUFFLES = 3


def _redeclared(system, seed):
    """The same design, its processes and channels declared in a
    seeded shuffled order."""
    document = system_to_dict(system)
    rng = random.Random(seed)
    rng.shuffle(document["processes"])
    rng.shuffle(document["channels"])
    return system_from_dict(document)


def _configurations():
    """``(label, warm, caller, ordering)``: two declarations of one
    design under one name-keyed ordering."""
    for family in FAMILIES:
        for seed in SEEDS:
            system = generate(family, seed=seed).system
            orderings = {"algorithm1": channel_ordering(system)}
            for k in range(SHUFFLES):
                orderings[f"shuffle{k}"] = random_ordering(system, seed=k)
            warm, caller = _redeclared(system, 1), _redeclared(system, 2)
            for name, ordering in orderings.items():
                yield f"{family}:s{seed}:{name}", warm, caller, ordering


CONFIGURATIONS = list(_configurations())


def _clear_memos():
    for cache in memos().values():
        cache.clear()


def _performance(analyze_fn, system, ordering):
    """The result with its critical ids, or the deadlock diagnosis."""
    try:
        performance = analyze_fn(system, ordering)
    except DeadlockError as error:
        return str(error), tuple(error.cycle or ())
    report = performance.report
    return performance, report.critical_nodes, report.critical_edges


def _preflight(system, ordering):
    try:
        preflight(system, ordering)
    except LintError as error:
        return str(error)
    return None


#: Each memoized entry point, as a function of ``(system, ordering)``.
ENTRY_POINTS = {
    "absint": analyze,
    "symmetry": lambda system, ordering: analyze_symmetry(
        lower(system, ordering)
    ),
    "preflight": _preflight,
    "lint": lambda system, ordering: render_text(
        lint_system(system, ordering), verbose=True
    ),
}


def test_cases_cover_live_and_deadlocked_orderings():
    dead = sum(
        isinstance(_performance(analyze_system, caller, ordering)[0], str)
        for _, _, caller, ordering in CONFIGURATIONS
    )
    assert 0 < dead < len(CONFIGURATIONS)


def test_engine_answers_as_a_fresh_analysis():
    mismatched = []
    for label, warm, caller, ordering in CONFIGURATIONS:
        engine = PerformanceEngine()
        _performance(engine.analyze, warm, ordering)
        cached = _performance(engine.analyze, caller, ordering)
        if cached != _performance(analyze_system, caller, ordering):
            mismatched.append(label)
    assert mismatched == []


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_memo_answers_as_a_cleared_call(entry):
    call = ENTRY_POINTS[entry]
    mismatched = []
    for label, warm, caller, ordering in CONFIGURATIONS:
        _clear_memos()
        call(warm, ordering)
        cached = call(caller, ordering)
        _clear_memos()
        if cached != call(caller, ordering):
            mismatched.append(label)
    assert mismatched == []
