"""Shared diagnostics vocabulary for static design analysis.

Every static check in the reproduction — structural validation, deadlock
diagnosis, performance lints, hygiene checks — reports its findings as
:class:`Diagnostic` values: a stable rule code (``ERM101``, ``ERM201``,
...), a severity, the design elements involved (process/channel names),
a human-readable message, and an optional machine-applicable
:class:`OrderingFix`.  The linter (:mod:`repro.lint`) collects them; the
pre-flight checks of the explorer and the simulator raise them as a
:class:`LintError`; the CLI renders them as text, JSON, or SARIF.

This module deliberately depends only on the standard library and on
:mod:`repro.errors`, so every layer (``core``, ``tmg``, ``dse``, ``sim``)
can produce diagnostics without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core cycle
    from repro.core.system import ChannelOrdering, SystemGraph


class Severity(enum.Enum):
    """Severity of a diagnostic, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric rank for comparisons: higher is more severe."""
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank


@dataclass(frozen=True)
class OrderingFix:
    """A machine-applicable fix: replace some processes' statement orders.

    ``gets``/``puts`` map process names to their corrected channel
    sequences; processes not mentioned keep their current order.  A fix is
    *safe* by construction: :meth:`apply` validates the patched ordering
    against the system before returning it.
    """

    description: str
    gets: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    puts: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def touched_processes(self) -> tuple[str, ...]:
        """Names of the processes whose statement order this fix rewrites."""
        return tuple(sorted(set(self.gets) | set(self.puts)))

    def apply(
        self, system: "SystemGraph", ordering: "ChannelOrdering"
    ) -> "ChannelOrdering":
        """Return ``ordering`` with this fix's per-process orders applied.

        Raises :class:`~repro.errors.ValidationError` if the patched
        ordering is not a permutation of each process's ports.
        """
        from repro.core.system import ChannelOrdering

        new_gets = dict(ordering.gets)
        new_puts = dict(ordering.puts)
        new_gets.update({name: tuple(seq) for name, seq in self.gets.items()})
        new_puts.update({name: tuple(seq) for name, seq in self.puts.items()})
        patched = ChannelOrdering(gets=new_gets, puts=new_puts)
        patched.validate(system)
        return patched


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static design-analysis rule.

    Attributes:
        rule: Stable rule code, e.g. ``"ERM201"``.
        severity: ``ERROR`` findings make the design unusable, ``WARNING``
            findings cost performance, ``INFO`` findings are hygiene.
        message: Human-readable explanation in design vocabulary
            (processes, channels, statement positions — never TMG places).
        location: Design elements involved, primary element first
            (process and/or channel names).
        fix: Optional machine-applicable reordering that resolves the
            finding (``ermes lint --fix`` applies it).
    """

    rule: str
    severity: Severity
    message: str
    location: tuple[str, ...] = ()
    fix: OrderingFix | None = None

    @property
    def fixable(self) -> bool:
        return self.fix is not None

    def format(self) -> str:
        """One-line rendering: ``ERM201 error [P2, d]: message``."""
        where = f" [{', '.join(self.location)}]" if self.location else ""
        return f"{self.rule} {self.severity.value}{where}: {self.message}"

    def sort_key(self) -> tuple[int, str, tuple[str, ...], str]:
        """Most severe first, then by rule code, location, and message.

        The message is the final tiebreak so two findings of the same
        rule at the same location never compare equal: the sort is a
        *total* order and every rendering of the same findings is
        byte-identical, run to run and machine to machine.
        """
        return (-self.severity.rank, self.rule, self.location, self.message)


class LintError(ValidationError):
    """A pre-flight check found error-severity diagnostics.

    Subclasses :class:`~repro.errors.ValidationError` so existing callers
    that catch validation failures keep working, while new callers can
    inspect the structured ``diagnostics`` (each with its rule code).
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        lines = [d.format() for d in self.diagnostics]
        count = len(lines)
        noun = "finding" if count == 1 else "findings"
        super().__init__(
            f"{count} lint {noun} at error severity:\n  " + "\n  ".join(lines)
        )

    @property
    def rule_codes(self) -> tuple[str, ...]:
        """The distinct rule codes involved, sorted."""
        return tuple(sorted({d.rule for d in self.diagnostics}))


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """The highest severity present, or ``None`` for no findings."""
    worst: Severity | None = None
    for diagnostic in diagnostics:
        if worst is None or diagnostic.severity > worst:
            worst = diagnostic.severity
    return worst


def sorted_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> tuple[Diagnostic, ...]:
    """Diagnostics in a total, deterministic order: most-severe first,
    then by rule, location, and message."""
    return tuple(sorted(diagnostics, key=Diagnostic.sort_key))

