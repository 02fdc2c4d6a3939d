"""The linter's engine: the rule catalog run over one design, and the
memoized error-only pre-flight (callers import both from :mod:`repro.lint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.cache import MISS, memo
from repro.core.system import ChannelOrdering, SystemGraph
from repro.diagnostics import Diagnostic, LintError, Severity
from repro.diagnostics import sorted_diagnostics
from repro.errors import ValidationError
from repro.lint import context, registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hls.pareto import ImplementationLibrary

#: Rules cheap enough (structural; no TMG build, no analysis) to run
#: before every exploration or simulation.
PREFLIGHT_RULES = ("ERM1", "ERM302")


@dataclass(frozen=True)
class LintResult:
    """All findings of one lint run, most severe first."""

    subject: str
    diagnostics: tuple[Diagnostic, ...]
    system: SystemGraph | None = None
    ordering: ChannelOrdering | None = None

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def counts(self) -> dict[Severity, int]:
        counts = {s: 0 for s in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return counts

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def fixable(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.fixable)

    def has_at_least(self, severity: Severity) -> bool:
        return any(d.severity >= severity for d in self.diagnostics)

    def codes(self) -> tuple[str, ...]:
        """The distinct rule codes that fired, sorted."""
        return tuple(sorted({d.rule for d in self.diagnostics}))


def lint_system(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    library: "ImplementationLibrary | None" = None,
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Run the rule catalog over one design and collect every finding.

    Args:
        system: The topology under analysis.
        ordering: Statement orders; defaults to declaration order.
        library: Optional HLS implementation library (enables ``ERM303``).
        select/ignore: Rule codes or prefixes (``"ERM3"``) to run/skip;
            ``ignore`` wins.  Unknown selectors raise.

    Returns:
        A :class:`LintResult` with findings sorted most severe first.
    """
    facts = context.LintContext(system, ordering, library=library)
    findings: list[Diagnostic] = []
    for rule in registry.catalog(select, ignore):
        findings.extend(rule.run(facts))
    return LintResult(
        subject=system.name,
        diagnostics=sorted_diagnostics(findings),
        system=system,
        ordering=facts.ordering,
    )


#: Successful pre-flights, keyed by the lowered IR.  Success-only by
#: design: a failing specification must re-report its diagnostics every
#: time (and failures are rare and already cheap).
_preflight_passed = memo("preflight", maxsize=512)


def preflight(
    system: SystemGraph, ordering: ChannelOrdering | None = None
) -> None:
    """Cheap pre-flight check: raise on structural error diagnostics.

    Runs the structural rules (``ERM1xx``, including the ordering ↔
    topology rule) plus the every-ordering-deadlocks rule (``ERM302``) —
    all linear-time, no TMG build — and raises a
    :class:`~repro.diagnostics.LintError` carrying the coded diagnostics
    when any error-severity finding exists.  The explorer, the simulator,
    and target sweeps call this so a broken specification fails with rule
    codes instead of an ad-hoc exception deep in an analysis.

    Successful runs are memoized on :func:`repro.ir.lower` of the pair,
    which carries every quantity the pre-flight rules read, so a repeated
    pre-flight of an already-passed design (the explorer re-checks on
    every ``run``, sweeps once per target) is one lowering-memo hit and
    one lookup.  An ordering that ``lower`` rejects, or that names
    processes the system does not have (which ``lower`` ignores), is
    never memoized.
    """
    from repro.ir import lower

    checked = ordering or ChannelOrdering.declaration_order(system)
    key = None
    if set(checked.gets) | set(checked.puts) <= set(system.process_names):
        try:
            key = lower(system, checked)
        except ValidationError:
            pass  # the rules below report it
        else:
            if _preflight_passed.get(key) is not MISS:
                return
    result = lint_system(system, checked, select=list(PREFLIGHT_RULES))
    errors = result.errors
    if errors:
        raise LintError(errors)
    if key is not None:
        _preflight_passed.put(key, True)
