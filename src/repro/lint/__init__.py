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

from repro.diagnostics import LintError, Severity
from repro.lint.engine import (
    PREFLIGHT_RULES,
    LintResult,
    lint_system,
    preflight,
)
from repro.lint.fixes import FixOutcome, apply_fixes
from repro.lint.render import render_json, render_sarif, render_text
from repro.lint.witness import format_witness

__all__ = [
    "FixOutcome",
    "LintError",
    "LintResult",
    "PREFLIGHT_RULES",
    "Severity",
    "apply_fixes",
    "format_witness",
    "lint_system",
    "preflight",
    "render_json",
    "render_sarif",
    "render_text",
]
