"""Exception hierarchy for the ERMES reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at tool boundaries (CLI, explorer
loops) while tests can assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError):
    """A system model violates a structural invariant.

    Examples: a channel whose endpoints are not registered processes, a
    process whose port order is not a permutation of its channels, or a
    testbench declaration that does not match the graph topology.
    """


class CompositionError(ValidationError):
    """A DSL composition step is ill-typed or structurally impossible.

    Examples: piping a two-output block into a three-input block,
    connecting ports whose payload types disagree, or elaborating a
    design that still has unconnected ports.  A subclass of
    :class:`ValidationError`: composition errors are construction-time
    validation failures, reported at the combinator call site.
    """


class DeadlockError(ReproError):
    """A configuration is dead: some dependency cycle can never make progress.

    Carries the offending cycle when known, as a list of element names
    (process/channel names for system-level deadlocks, place/transition
    names for TMG-level ones).
    """

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class NotLiveError(DeadlockError):
    """A Timed Marked Graph contains a token-free cycle (Definition 3 with
    ``M0(c) = 0``), i.e. its cycle time is infinite."""


class InfeasibleError(ReproError):
    """An optimization problem (ILP, knapsack) has no feasible solution."""


class NodeLimitError(ReproError):
    """A branch-and-bound search hit its node budget before proving an
    optimum or infeasibility.  Distinct from :class:`InfeasibleError`: a
    budget abort says nothing about whether a feasible assignment exists.
    Carries the number of nodes explored (``nodes``)."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class SimulationDeadlock(DeadlockError, SimulationError):
    """Runtime deadlock observed by the simulator: every process is blocked
    on a rendezvous and no event is pending.

    Carries the wait-for cycle of process names diagnosed at the time of
    the deadlock, when one exists, plus the full blocked configuration
    (``waiting``: process name -> the channel it is blocked on) so the
    runtime observation can be compared against the model checker's
    witness (:mod:`repro.verify`).
    """

    def __init__(
        self,
        message: str,
        cycle: list[str] | None = None,
        waiting: dict[str, str] | None = None,
    ):
        super().__init__(message, cycle=cycle)
        self.waiting = dict(waiting) if waiting is not None else None


class VerificationError(ReproError):
    """The explicit-state model checker (:mod:`repro.verify`) reached an
    inconsistent conclusion — e.g. a witness schedule that does not
    replay.  Always indicates a bug, never a property of the design."""


class BudgetExceeded(VerificationError):
    """A verification run exhausted its state or time budget before
    reaching a verdict.  Raised by the *strict* entry points
    (:func:`repro.verify.verify_ordering`); the query form
    (:func:`repro.verify.check_deadlock`) reports the same outcome as an
    explicit ``INCONCLUSIVE`` verdict instead.  Budgets defer a verdict —
    they never silently grant one."""


class ConfigurationError(ReproError):
    """An inconsistent design configuration, e.g. selecting an
    implementation for a process that does not exist in its Pareto set."""
