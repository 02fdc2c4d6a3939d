"""``repro.lint`` — static design analysis over system specifications.

The linter checks a :class:`~repro.core.system.SystemGraph` + ordering
(+ optional HLS implementation library) *before* any simulation or DSE
runs and reports **all** findings as structured
:class:`~repro.diagnostics.Diagnostic` values: stable ``ERMxxx`` rule
codes, severities, design-element locations, messages in design
vocabulary, and machine-applicable fix-its.  See ``docs/LINT_RULES.md``
for the rule catalog.

Typical use::

    from repro.lint import lint_system

    result = lint_system(system, ordering, library=library)
    for diagnostic in result.diagnostics:
        print(diagnostic.format())
    if result.has_at_least(Severity.ERROR):
        ...

The CLI front end is ``ermes lint`` (text, JSON, or SARIF 2.1.0 output;
``--fix`` applies the safe reorderings).  :func:`preflight` is the cheap
error-only subset the explorer and the simulator run before starting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.cache import MISS, memo
from repro.core.system import ChannelOrdering, SystemGraph
from repro.diagnostics import (
    Diagnostic,
    LintError,
    OrderingFix,
    Severity,
    sorted_diagnostics,
)
from repro.lint.context import LintContext
from repro.lint.fixes import FixOutcome, apply_fixes, fix_result
from repro.lint.registry import (
    Rule,
    RuleRegistry,
    category,
    default_registry,
)
from repro.lint.render import render_json, render_sarif, render_text, sarif_dict
from repro.lint.witness import (
    BlockedStatement,
    format_witness,
    witness_statements,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hls.pareto import ImplementationLibrary
    from repro.perf.engine import PerformanceEngine

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
        return self.at(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.at(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self.at(Severity.INFO)

    @property
    def fixable(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.fixable)

    def at(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is severity
        )

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
    registry: RuleRegistry | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    perf_engine: "PerformanceEngine | None" = None,
) -> LintResult:
    """Run the rule catalog over one design and collect every finding.

    Args:
        system: The topology under analysis.
        ordering: Statement orders; defaults to declaration order.
        library: Optional HLS implementation library (enables ``ERM303``).
        registry: Rule catalog; defaults to the built-in one.
        select/ignore: Rule codes or prefixes (``"ERM3"``) to run/skip;
            ``ignore`` wins.  Unknown selectors raise.
        perf_engine: Performance engine serving the ``ERM301`` analyses;
            pass the engine your explorer uses to share its cache.

    Returns:
        A :class:`LintResult` with findings sorted most severe first.
    """
    registry = registry or default_registry()
    context = LintContext(
        system, ordering, library=library, perf_engine=perf_engine
    )
    findings: list[Diagnostic] = []
    for rule in registry.selected(select, ignore):
        findings.extend(rule.run(context))
    return LintResult(
        subject=system.name,
        diagnostics=sorted_diagnostics(findings),
        system=system,
        ordering=context.ordering,
    )


#: Successful default-registry pre-flights, keyed by the IR structural
#: hash.  Success-only by design: a failing specification must re-report
#: its diagnostics every time (and failures are rare and already cheap).
_preflight_passed = memo("preflight", maxsize=512)


def clear_preflight_cache() -> None:
    """Drop the memoized pre-flight successes (test isolation hook)."""
    _preflight_passed.clear()


def preflight(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    *,
    registry: RuleRegistry | None = None,
) -> None:
    """Cheap pre-flight check: raise on structural error diagnostics.

    Runs the structural rules (``ERM1xx``, including the ordering ↔
    topology rule) plus the every-ordering-deadlocks rule (``ERM302``) —
    all linear-time, no TMG build — and raises a
    :class:`~repro.diagnostics.LintError` carrying the coded diagnostics
    when any error-severity finding exists.  The explorer, the simulator,
    and target sweeps call this so a broken specification fails with rule
    codes instead of an ad-hoc exception deep in an analysis.

    Successful default-registry runs are memoized on the IR structural
    hash (:func:`repro.ir.structural_hash_of`): every quantity the
    pre-flight rules read — process kinds, the channel tables including
    ``initial_tokens``, and the per-process get/put orders — is part of
    that hash, so a repeated pre-flight of an already-passed design (the
    explorer re-checks on every ``run``, sweeps once per target) is one
    hash and one set lookup.  Orderings that name processes the system
    does not have are never memoized (the hash renders only declared
    processes, so such entries would alias), and neither are runs with a
    custom ``registry``.
    """
    from repro.ir import structural_hash_of

    checked = ordering or ChannelOrdering.declaration_order(system)
    known = set(system.process_names)
    memoable = registry is None and (
        set(checked.gets) | set(checked.puts) <= known
    )
    key = ""
    if memoable:
        key = structural_hash_of(system, checked)
        if _preflight_passed.get(key) is not MISS:
            return
    result = lint_system(
        system, checked, registry=registry, select=list(PREFLIGHT_RULES)
    )
    errors = result.errors
    if errors:
        raise LintError(errors)
    if memoable:
        _preflight_passed.put(key, True)


__all__ = [
    "BlockedStatement",
    "Diagnostic",
    "FixOutcome",
    "LintContext",
    "LintError",
    "LintResult",
    "OrderingFix",
    "PREFLIGHT_RULES",
    "Rule",
    "RuleRegistry",
    "Severity",
    "apply_fixes",
    "category",
    "clear_preflight_cache",
    "default_registry",
    "fix_result",
    "format_witness",
    "lint_system",
    "preflight",
    "render_json",
    "render_sarif",
    "render_text",
    "sarif_dict",
    "witness_statements",
]
