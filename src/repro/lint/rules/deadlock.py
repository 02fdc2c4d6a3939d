"""ERM2xx — deadlock diagnosis.

The paper's central static result (Section 3): whether the blocking
``put``/``get`` orders can deadlock is decidable from ``(F, M0)`` alone —
the system deadlocks iff the token-free subgraph of the TMG has a cycle.
``ERM201`` reuses that witness but explains it in *design* terms: which
process blocks on which statement, at which position of its chain, and —
when the deadlock is ordering-induced — ships a fix-it carrying the safe
Algorithm-1 reordering.
"""

from __future__ import annotations

from typing import Iterable

from repro.diagnostics import Diagnostic, OrderingFix, Severity
from repro.lint.context import LintContext
from repro.lint.registry import rule
from repro.lint.witness import format_witness


@rule(
    "ERM201",
    "ordering-deadlock",
    Severity.ERROR,
    "The current get/put statement orders form a circular wait; the "
    "system deadlocks before producing a single output.  A safe "
    "reordering (Algorithm 1) exists and is attached as a fix-it.",
)
def _erm201(context: LintContext) -> Iterable[Diagnostic]:
    if not context.sound:
        return
    witness = context.deadlock_witness
    if witness is None:
        return
    if not context.reordering_can_fix_deadlock:
        # Structurally dead: every ordering deadlocks; ERM302 owns it.
        return

    chain = format_witness(context.ordering, witness.statements)
    fix: OrderingFix | None = None
    remedy = ""
    optimized = context.optimized_ordering
    if optimized is not None:
        changed = optimized.differs_from(context.ordering)
        gets = {
            p: optimized.gets_of(p)
            for p in changed
            if optimized.gets_of(p) != context.ordering.gets_of(p)
        }
        puts = {
            p: optimized.puts_of(p)
            for p in changed
            if optimized.puts_of(p) != context.ordering.puts_of(p)
        }
        swaps = "; ".join(
            _describe_change(p, gets.get(p), puts.get(p))
            for p in changed
        )
        fix = OrderingFix(
            description=(
                "apply the Algorithm-1 safe reordering: " + swaps
            ),
            gets=gets,
            puts=puts,
        )
        remedy = " Fix: " + swaps + "."
    location = tuple(
        name for name in witness.cycle if context.system.has_process(name)
    ) + tuple(
        name for name in witness.cycle if context.system.has_channel(name)
    )
    yield Diagnostic(
        rule="ERM201",
        severity=Severity.ERROR,
        message=(
            "deadlock: circular wait "
            + chain
            + " — each process insists on finishing the listed "
            "statement before serving the next process's."
            + remedy
        ),
        location=location,
        fix=fix,
    )


def _describe_change(
    process: str,
    gets: tuple[str, ...] | None,
    puts: tuple[str, ...] | None,
) -> str:
    parts = []
    if gets is not None:
        parts.append(f"gets ({', '.join(gets)})")
    if puts is not None:
        parts.append(f"puts ({', '.join(puts)})")
    return f"reorder {process}'s " + " and ".join(parts)
