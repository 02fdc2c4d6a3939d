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

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.diagnostics import LintError as LintError, Severity as Severity
    from repro.lint.engine import (
        PREFLIGHT_RULES as PREFLIGHT_RULES,
        LintResult as LintResult,
        lint_system as lint_system,
        preflight as preflight,
    )
    from repro.lint.fixes import FixOutcome as FixOutcome, apply_fixes as apply_fixes
    from repro.lint.render import (
        render_json as render_json,
        render_sarif as render_sarif,
        render_text as render_text,
    )
    from repro.lint.witness import format_witness as format_witness
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        "repro.diagnostics": ("LintError", "Severity"),
        ".engine": ("PREFLIGHT_RULES", "LintResult", "lint_system", "preflight"),
        ".fixes": ("FixOutcome", "apply_fixes"),
        ".render": ("render_json", "render_sarif", "render_text"),
        ".witness": ("format_witness",),
    })
