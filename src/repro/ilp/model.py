"""ILP model for the Section 5 optimization problems.

The paper formulates IP selection as 0-1 ILPs over variables ``x_{i,p}``
("implementation *i* is selected for process *p*") with exactly-one
constraints per process and linear side constraints on cumulative latency
or area gains — i.e. *multiple-choice knapsack* structure.  The model here
captures exactly that shape:

* a :class:`Group` per process, whose :class:`Choice`\\ s are its candidate
  implementations (each with an objective value and per-constraint
  consumptions);
* named linear :class:`SideConstraint`\\ s (``<=``, ``==`` or ``>=``);
* a maximize/minimize direction.

Both the built-in branch-and-bound solver and the optional SciPy backend
consume this model, so results can be cross-checked solver-to-solver the
way the paper cross-checks against GLPK.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ValidationError


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    EQ = "=="
    GE = ">="


@dataclass(frozen=True)
class Choice:
    """One selectable option within a group.

    Attributes:
        name: Unique within the group.
        objective: Contribution to the objective if selected.
        uses: Contribution to each named side constraint if selected
            (absent constraints contribute 0).
    """

    name: str
    objective: float
    uses: Mapping[str, float] = field(default_factory=dict)

    def use(self, constraint: str) -> float:
        return self.uses.get(constraint, 0.0)


@dataclass(frozen=True)
class Group:
    """An exactly-one selection group (one process's implementations)."""

    name: str
    choices: tuple[Choice, ...]
    #: The names of ``choices``.
    choice_names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValidationError(f"group {self.name!r} has no choices")
        names = frozenset(c.name for c in self.choices)
        if len(names) != len(self.choices):
            raise ValidationError(f"group {self.name!r} has duplicate choice names")
        object.__setattr__(self, "choice_names", names)

    def choice(self, name: str) -> Choice:
        for c in self.choices:
            if c.name == name:
                return c
        raise ValidationError(f"group {self.name!r} has no choice {name!r}")


@dataclass(frozen=True)
class SideConstraint:
    """A named linear constraint over the selected choices."""

    name: str
    sense: Sense
    rhs: float


@dataclass(frozen=True)
class Solution:
    """An assignment of one choice per group.

    ``nodes`` reports search effort (branch-and-bound nodes explored);
    backends without a node notion leave it 0.
    """

    selection: Mapping[str, str]  # group name -> choice name
    objective: float
    nodes: int = 0

    def choice_of(self, group: str) -> str:
        return self.selection[group]


@dataclass
class MultiChoiceProblem:
    """A multiple-choice 0-1 program: pick one choice per group, optimize a
    linear objective subject to linear side constraints."""

    groups: list[Group] = field(default_factory=list)
    constraints: list[SideConstraint] = field(default_factory=list)
    maximize: bool = True
    forbidden: list[Mapping[str, str]] = field(default_factory=list)

    def add_group(self, name: str, choices: Iterable[Choice]) -> Group:
        if any(g.name == name for g in self.groups):
            raise ValidationError(f"duplicate group {name!r}")
        group = Group(name, tuple(choices))
        self.groups.append(group)
        return group

    def add_constraint(self, name: str, sense: Sense | str, rhs: float) -> None:
        if any(c.name == name for c in self.constraints):
            raise ValidationError(f"duplicate constraint {name!r}")
        self.constraints.append(SideConstraint(name, Sense(sense), rhs))

    def forbid(self, selection: Mapping[str, str]) -> None:
        """Add a *no-good cut*: this exact full assignment is not allowed.

        This implements the paper's "constraints to discard the
        configurations already optimized" — the explorer uses it to avoid
        revisiting configurations across iterations.  A cut naming a group
        or a choice the problem does not have would match nothing, so it
        raises :class:`~repro.errors.ValidationError`.
        """
        missing = [g.name for g in self.groups if g.name not in selection]
        if missing:
            raise ValidationError(
                f"no-good cut must cover every group; missing {missing}"
            )
        if len(selection) != len(self.groups):
            known = {g.name for g in self.groups}
            unknown = [name for name in selection if name not in known]
            raise ValidationError(f"no-good cut names unknown groups {unknown}")
        for group in self.groups:
            if selection[group.name] not in group.choice_names:
                raise ValidationError(
                    f"no-good cut selects {selection[group.name]!r}, which "
                    f"group {group.name!r} does not have"
                )
        self.forbidden.append(dict(selection))

    def group(self, name: str) -> Group:
        for g in self.groups:
            if g.name == name:
                return g
        raise ValidationError(f"unknown group {name!r}")

    def evaluate(self, selection: Mapping[str, str]) -> float:
        """Objective value of a full assignment (no feasibility check)."""
        total = 0.0
        for g in self.groups:
            total += g.choice(selection[g.name]).objective
        return total

    def is_feasible(self, selection: Mapping[str, str]) -> bool:
        """Check a full assignment against all constraints and cuts."""
        for constraint in self.constraints:
            lhs = sum(
                g.choice(selection[g.name]).use(constraint.name)
                for g in self.groups
            )
            if not _satisfies(lhs, constraint.sense, constraint.rhs):
                return False
        return all(dict(cut) != dict(selection) for cut in self.forbidden)


def _satisfies(lhs: float, sense: Sense, rhs: float, tol: float = 1e-9) -> bool:
    if sense is Sense.LE:
        return lhs <= rhs + tol
    if sense is Sense.GE:
        return lhs >= rhs - tol
    return abs(lhs - rhs) <= tol
