"""The rule catalog: rule descriptors, declaration, and selection.

Each lint rule is a small function ``(LintContext) -> Iterable[Diagnostic]``
declared under a stable code (``ERM101``, ``ERM201``, ...) with the
:func:`rule` decorator by its module under :mod:`repro.lint.rules`.
:func:`catalog` loads those modules on first use and returns the rules,
filtered by ``--select``/``--ignore`` exact codes or prefixes (``ERM3``
selects every performance rule); the renderers read it for SARIF rule
metadata.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.diagnostics import Diagnostic, Severity
from repro.errors import ValidationError
from repro.lint.context import LintContext

RuleCheck = Callable[[LintContext], Iterable[Diagnostic]]

_CODE_RE = re.compile(r"^ERM\d{3}$")


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog.

    Attributes:
        code: Stable identifier (``ERM`` + three digits; the hundreds digit
            is the category: 1 structural, 2 deadlock, 3 performance,
            4 hygiene, 5 verification, 6 dataflow, 7 symmetry).
        name: Short kebab-case name (used as the SARIF rule name).
        severity: Default severity of the findings this rule emits.
        summary: One-line description for catalogs and SARIF metadata.
        check: The rule body.
    """

    code: str
    name: str
    severity: Severity
    summary: str
    check: RuleCheck

    def __post_init__(self) -> None:
        if not _CODE_RE.match(self.code):
            raise ValidationError(
                f"rule code {self.code!r} must match ERM<3 digits>"
            )

    def run(self, context: LintContext) -> list[Diagnostic]:
        """Execute the rule, asserting it only emits its own code."""
        findings = list(self.check(context))
        for finding in findings:
            if finding.rule != self.code:
                raise ValidationError(
                    f"rule {self.code} emitted a diagnostic labelled "
                    f"{finding.rule!r}"
                )
        return findings


#: Every declared rule by code, filled as the rule modules import.
_RULES: dict[str, Rule] = {}


def rule(
    code: str, name: str, severity: Severity, summary: str
) -> Callable[[RuleCheck], RuleCheck]:
    """Declare the decorated check as catalog rule ``code``."""

    def declare(check: RuleCheck) -> RuleCheck:
        entry = Rule(
            code=code, name=name, severity=severity, summary=summary,
            check=check,
        )
        if code in _RULES:
            raise ValidationError(f"duplicate lint rule {code!r}")
        _RULES[code] = entry
        return check

    return declare


def catalog(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> tuple[Rule, ...]:
    """The rules surviving ``--select``/``--ignore`` filtering, in code order.

    Each entry of either list is an exact code (``ERM301``) or a prefix
    (``ERM3``, ``ERM``).  ``select=None`` means everything; ``ignore``
    always wins over ``select``.  Unknown entries raise, so a typo in a
    CI invocation fails loudly instead of silently linting nothing.
    """
    import repro.lint.rules  # noqa: F401  (declaring the rules fills _RULES)

    codes = sorted(_RULES)
    for pattern in list(select or ()) + list(ignore or ()):
        if not any(code.startswith(pattern) for code in codes):
            raise ValidationError(
                f"rule selector {pattern!r} matches no registered rule "
                f"(known: {', '.join(codes)})"
            )

    def matches(code: str, patterns: Sequence[str]) -> bool:
        return any(code.startswith(p) for p in patterns)

    return tuple(
        _RULES[code]
        for code in codes
        if (select is None or matches(code, select))
        and not (ignore and matches(code, ignore))
    )


def category(code: str) -> str:
    """Human name of a rule code's category (its hundreds digit)."""
    return {
        "1": "structural",
        "2": "deadlock",
        "3": "performance",
        "4": "hygiene",
        "5": "verification",
        "6": "dataflow",
        "7": "symmetry",
    }.get(code[3:4], "other")
