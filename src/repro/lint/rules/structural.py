"""ERM1xx — structural rules.

These absorb :mod:`repro.core.validation`: the collect-all core there
already emits coded diagnostics, so each rule here just filters the
memoized result for its own code.  Keeping one catalog entry per code
(rather than one "validation" super-rule) is what makes ``--select`` /
``--ignore`` and the SARIF rule catalog precise.
"""

from __future__ import annotations

from typing import Iterable

from repro.diagnostics import Diagnostic, Severity
from repro.lint.context import LintContext
from repro.lint.registry import RuleCheck, rule

_STRUCTURAL_RULES: tuple[tuple[str, str, str], ...] = (
    ("ERM101", "no-worker-processes",
     "The system has no worker processes; nothing is under design."),
    ("ERM102", "source-has-inputs",
     "A testbench source has input channels; sources only produce."),
    ("ERM103", "sink-has-outputs",
     "A testbench sink has output channels; sinks only consume."),
    ("ERM104", "worker-without-inputs",
     "A worker process has no input channels and never synchronizes."),
    ("ERM105", "worker-without-outputs",
     "A worker process has no output channels; its results are dead."),
    ("ERM106", "unreachable-from-source",
     "A process is not reachable from any testbench source."),
    ("ERM107", "cannot-reach-sink",
     "A process has no path to any testbench sink."),
)


def _filtering(code: str) -> RuleCheck:
    def check(context: LintContext) -> Iterable[Diagnostic]:
        return [d for d in context.structural if d.rule == code]

    return check


for _code, _name, _summary in _STRUCTURAL_RULES:
    rule(_code, _name, Severity.ERROR, _summary)(_filtering(_code))


@rule(
    "ERM108",
    "ordering-topology-mismatch",
    Severity.ERROR,
    "A channel ordering is not a permutation of a process's declared "
    "ports, or names a process the system does not have.",
)
def _erm108(context: LintContext) -> Iterable[Diagnostic]:
    return context.ordering_issues
