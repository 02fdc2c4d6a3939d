"""Applying machine-applicable fix-its.

``ermes lint --fix`` collects every fixable diagnostic and applies their
:class:`~repro.diagnostics.OrderingFix` patches in severity order
(deadlock fixes before performance fixes).  Each application is validated
against the system; a patch that no longer validates — e.g. because an
earlier fix already rewrote the same process — is skipped, never applied
blind.  The result is re-linted by the caller, so a --fix run reports the
post-fix state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.system import ChannelOrdering, SystemGraph
from repro.diagnostics import Diagnostic
from repro.errors import ValidationError


@dataclass(frozen=True)
class FixOutcome:
    """What a fix pass did."""

    ordering: ChannelOrdering
    applied: tuple[Diagnostic, ...]
    skipped: tuple[Diagnostic, ...]

    @property
    def changed(self) -> bool:
        return bool(self.applied)


def apply_fixes(
    system: SystemGraph,
    ordering: ChannelOrdering,
    diagnostics: Sequence[Diagnostic],
) -> FixOutcome:
    """Apply every applicable fix-it among ``diagnostics``.

    Fixes are applied most-severe first.  A fix whose patch is redundant
    (the ordering already matches) or invalid against the system is
    recorded as skipped.
    """
    applied: list[Diagnostic] = []
    skipped: list[Diagnostic] = []
    current = ordering
    for diagnostic in sorted(diagnostics, key=Diagnostic.sort_key):
        fix = diagnostic.fix
        if fix is None:
            continue
        already = all(
            current.gets_of(p) == order for p, order in fix.gets.items()
        ) and all(
            current.puts_of(p) == order for p, order in fix.puts.items()
        )
        if already:
            skipped.append(diagnostic)
            continue
        try:
            current = fix.apply(system, current)
        except ValidationError:
            skipped.append(diagnostic)
            continue
        applied.append(diagnostic)
    return FixOutcome(
        ordering=current, applied=tuple(applied), skipped=tuple(skipped)
    )

