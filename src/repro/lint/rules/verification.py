"""ERM5xx — exhaustive verification.

The ERM2xx family diagnoses deadlock *structurally* (token-free TMG
cycles, Section 3 of the paper).  The rules here back those verdicts
with the explicit-state model checker (:mod:`repro.verify`), which
explores the exact untimed semantics under a small lint-scale budget:

* ``ERM501`` upgrades a deadlock to **verified**: the checker found a
  reachable dead state and the diagnostic carries the replayable
  schedule plus the decoded circular wait;
* ``ERM502`` is the safety net: it fires only when the structural
  analysis and the exhaustive search *disagree* on a conclusive
  verdict, which always indicates a bug in one of the two engines —
  never a property of the design.

Both rules stay silent on unsound configurations, on systems above
:data:`repro.verify.checker.SMALL_SYSTEM_LIMIT`, and on ``INCONCLUSIVE``
(budget-exhausted) runs — an exhausted budget defers the verdict, it
never grants one.
"""

from __future__ import annotations

from typing import Iterable

from repro.diagnostics import Diagnostic, Severity
from repro.lint.context import LintContext
from repro.lint.registry import rule


@rule(
    "ERM501",
    "verified-deadlock",
    Severity.ERROR,
    "The explicit-state model checker exhaustively confirmed that the "
    "current get/put orders reach a dead state; the diagnostic carries "
    "the shortest witness schedule found and the circular wait it "
    "produces.",
)
def _erm501(context: LintContext) -> Iterable[Diagnostic]:
    from repro.verify.checker import Verdict

    result = context.verification
    if result is None or result.verdict is not Verdict.DEADLOCKED:
        return
    witness = result.witness
    assert witness is not None  # DEADLOCKED always carries one
    schedule = witness.format_schedule() or "<initial state>"
    wait = " -> ".join(witness.cycle + witness.cycle[:1])
    yield Diagnostic(
        rule="ERM501",
        severity=Severity.ERROR,
        message=(
            "verified deadlock: exhaustive search over "
            f"{result.states_explored} states reaches a dead state "
            f"via {schedule}; circular wait {wait}."
        ),
        location=tuple(
            name
            for name in witness.cycle
            if context.system.has_process(name)
        )
        + tuple(
            name
            for name in witness.cycle
            if context.system.has_channel(name)
        ),
    )


@rule(
    "ERM502",
    "structural-exhaustive-disagreement",
    Severity.ERROR,
    "The structural (TMG) deadlock verdict and the exhaustive "
    "model-checking verdict disagree.  This is an internal "
    "consistency check: a firing always indicates a bug in one of "
    "the two analyses, never a property of the design.",
)
def _erm502(context: LintContext) -> Iterable[Diagnostic]:
    from repro.verify.checker import Verdict

    result = context.verification
    if result is None or result.verdict is Verdict.INCONCLUSIVE:
        return
    structural_dead = context.deadlock_witness is not None
    exhaustive_dead = result.verdict is Verdict.DEADLOCKED
    if structural_dead == exhaustive_dead:
        return
    structural_claim = (
        "a circular wait" if structural_dead else "deadlock freedom"
    )
    exhaustive_claim = (
        "a reachable dead state"
        if exhaustive_dead
        else "deadlock freedom"
    )
    yield Diagnostic(
        rule="ERM502",
        severity=Severity.ERROR,
        message=(
            f"analysis disagreement: the structural TMG test reports "
            f"{structural_claim} but the exhaustive search "
            f"({result.states_explored} states) proves "
            f"{exhaustive_claim}.  One of the two engines is wrong — "
            "please report this as a bug with the design attached."
        ),
        location=(),
    )
