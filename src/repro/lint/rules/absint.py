"""ERM6xx — abstract-interpretation dataflow facts.

These rules surface what the reachability closure and the integer-row
certificate of :mod:`repro.absint` prove without any state-space search:
sound per-channel occupancy bounds, statically-dead structure, and
certificate-backed deadlock-freedom.

* ``ERM601`` flags a buffered channel whose proved maximum occupancy is
  below its declared capacity — the FIFO is over-provisioned and the
  excess depth is silicon the design can never use;
* ``ERM602`` flags channels on which no interleaving ever completes a
  transfer (the deadlock's blast radius, structurally);
* ``ERM603`` flags individual statements no interleaving ever executes;
* ``ERM604`` reports a validated deadlock-freedom certificate when it is
  the *only* conclusive verdict available — i.e. when the exhaustive
  checker skipped the system (above
  :data:`~repro.verify.checker.SMALL_SYSTEM_LIMIT`) or exhausted its
  lint-scale budget.  On small systems the exhaustive verdict already
  settles the question and the rule stays silent.

Soundness keeps the first three honest: the closure over-approximates
every reachable concrete state, so "dead" and "unreachable" findings can
never be false positives (a put or get the closure never fires never
fires concretely), and an ERM601 bound is a guarantee, not a heuristic.
The closure is the least fixpoint of the occupancy-interval analysis
(docs/THEORY.md §7), which is what the rule texts below call "the
fixpoint".
"""

from __future__ import annotations

from typing import Iterable

from repro.diagnostics import Diagnostic, Severity
from repro.lint.context import LintContext
from repro.lint.registry import RuleRegistry


def register_absint(registry: RuleRegistry) -> None:
    """Register ERM601–ERM604 on ``registry``."""

    @registry.register(
        "ERM601",
        "over-provisioned-capacity",
        Severity.WARNING,
        "The abstract interpreter proved a buffered channel's occupancy "
        "can never reach its declared capacity under any interleaving; "
        "the excess FIFO depth is unusable and can be reclaimed.",
    )
    def _erm601(context: LintContext) -> Iterable[Diagnostic]:
        result = context.absint()
        if result is None or not result.deadlock_free:
            return
        for bound in result.bounds:
            if bound.declared_capacity <= 0:
                continue
            if bound.hi >= bound.declared_capacity:
                continue
            yield Diagnostic(
                rule="ERM601",
                severity=Severity.WARNING,
                message=(
                    f"channel '{bound.channel}' declares capacity "
                    f"{bound.declared_capacity} but its occupancy is "
                    f"statically bounded by {bound.hi} under every "
                    f"interleaving; {bound.declared_capacity - bound.hi} "
                    "slot(s) of FIFO depth can never be used."
                ),
                location=(bound.channel,),
            )

    @registry.register(
        "ERM602",
        "dead-channel",
        Severity.WARNING,
        "No interleaving ever completes a transfer on this channel: the "
        "abstract fixpoint never enables any of its actions.  Dead "
        "channels mark the blast radius of a structural deadlock (or "
        "dead code in the topology).",
    )
    def _erm602(context: LintContext) -> Iterable[Diagnostic]:
        result = context.absint()
        if result is None:
            return
        for channel in result.dead_channels:
            yield Diagnostic(
                rule="ERM602",
                severity=Severity.WARNING,
                message=(
                    f"channel '{channel}' is dead: the occupancy fixpoint "
                    "proves no interleaving ever enables a transfer on it."
                ),
                location=(channel,),
            )

    @registry.register(
        "ERM603",
        "unreachable-statement",
        Severity.WARNING,
        "A statement of a process program that no interleaving ever "
        "executes, as proved by the abstract reachability fixpoint.",
    )
    def _erm603(context: LintContext) -> Iterable[Diagnostic]:
        result = context.absint()
        if result is None:
            return
        for op in result.unreachable_ops:
            subject = f"{op.kind}({op.channel})" if op.channel else op.kind
            yield Diagnostic(
                rule="ERM603",
                severity=Severity.WARNING,
                message=(
                    f"statement {op.index} of process '{op.process}' "
                    f"({subject}) is statically unreachable: no "
                    "interleaving ever executes it."
                ),
                location=(op.process,) + ((op.channel,) if op.channel else ()),
            )

    @registry.register(
        "ERM604",
        "certified-deadlock-free",
        Severity.INFO,
        "A machine-checked siphon-ranking certificate proves the "
        "configuration deadlock-free where exhaustive verification is "
        "unavailable (system too large) or inconclusive (budget "
        "exhausted).",
    )
    def _erm604(context: LintContext) -> Iterable[Diagnostic]:
        from repro.verify.checker import Verdict

        result = context.absint()
        if result is None or result.certificate is None:
            return
        verification = context.verification()
        if (
            verification is not None
            and verification.verdict is not Verdict.INCONCLUSIVE
        ):
            return  # the exhaustive verdict already settles it
        certificate = result.certificate
        yield Diagnostic(
            rule="ERM604",
            severity=Severity.INFO,
            message=(
                "deadlock-freedom certified without state-space search: a "
                f"validated {certificate.method} certificate ranks "
                f"{len(certificate.ranks)} transitions so that no "
                "token-free cycle exists (ir "
                f"{certificate.ir_hash[:12]}...)."
            ),
            location=(),
        )
