"""The explicit-state reachability engine and its budgeted verdicts.

:func:`check_deadlock` explores the untimed transition system of a
``(system, ordering)`` pair (see :mod:`repro.verify.semantics`) and
returns a three-valued :class:`VerificationResult`:

* ``DEADLOCK_FREE`` — the *entire* reachable state space was enumerated
  and no deadlocked state exists.  This is a proof, not a sample.
* ``DEADLOCKED`` — a reachable deadlock was found; the result carries a
  replayable :class:`~repro.verify.witness.DeadlockWitness` (shortest
  schedule among the explored interleavings, plus the circular wait
  decoded to blocked statements).
* ``INCONCLUSIVE`` — a state or time budget ran out first.  Budgets are
  never a silent pass: the verdict is explicit, carries the reason, and
  the strict entry point :func:`verify_ordering` raises
  :class:`~repro.errors.BudgetExceeded` instead of returning.

The search is breadth-first (witnesses come out shortest-first) with
stubborn-set partial-order reduction on by default
(:mod:`repro.verify.stubborn`).  The reduction expands one enabled action
per state, so the reduced search is a single firing walk that ends at a
deadlock or at its first revisited state.  ``por=False`` selects the
naive full interleaving — same verdicts, exponentially more states (that
gap is the benchmark ``benchmarks/test_bench_verify.py`` tracks).
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import BudgetExceeded, DeadlockError, ValidationError
from repro.obs.metrics import count, timed
from repro.verify.semantics import Action, State, TransitionSystem
from repro.verify.stubborn import stubborn_set
from repro.verify.witness import DeadlockWitness, decode_deadlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sym.perm import PairPerm
    from repro.sym.states import StateSymmetry

#: Default cap on explored states — comfortably above every shipped
#: example while still bounding degenerate blow-ups to well under a
#: second of work.
DEFAULT_BUDGET_STATES = 1_000_000


class Verdict(enum.Enum):
    """Three-valued outcome of a verification run."""

    DEADLOCK_FREE = "deadlock-free"
    DEADLOCKED = "deadlocked"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerificationResult:
    """Everything one :func:`check_deadlock` run established.

    Attributes:
        verdict: The three-valued outcome.
        witness: The replayable counterexample (``DEADLOCKED`` only).
        states_explored: Distinct states expanded (never more than
            ``budget_states``).
        transitions_fired: Successor computations performed.
        por_pruned: Enabled actions *not* expanded thanks to the
            stubborn-set reduction (0 when ``por=False``).
        state_space_bound: The a-priori product bound on the state space.
        elapsed_s: Wall-clock search time.
        budget_states / budget_seconds: The limits the run was given.
        reason: Why the run stopped (always set; for ``INCONCLUSIVE``
            it names the exhausted budget).
        por: Whether the reduction was active.
        sym: Whether quotient-space symmetry reduction was active (it
            silently stays off when the design's automorphism group is
            trivial, even under ``sym=True``).
        sym_merged: Successor states folded onto an already-visited
            orbit representative by a non-identity automorphism
            (0 when ``sym`` is off).
    """

    verdict: Verdict
    witness: DeadlockWitness | None
    states_explored: int
    transitions_fired: int
    por_pruned: int
    state_space_bound: int
    elapsed_s: float
    budget_states: int
    budget_seconds: float | None
    reason: str
    por: bool
    sym: bool = False
    sym_merged: int = 0

    @property
    def deadlocked(self) -> bool:
        return self.verdict is Verdict.DEADLOCKED

    @property
    def proven_free(self) -> bool:
        return self.verdict is Verdict.DEADLOCK_FREE

    @property
    def conclusive(self) -> bool:
        return self.verdict is not Verdict.INCONCLUSIVE

    def format(self) -> str:
        """One-paragraph human rendering (the ``ermes verify`` body)."""
        lines = [
            f"verdict: {self.verdict.value} ({self.reason})",
            f"states explored: {self.states_explored}"
            f" (bound {self.state_space_bound})",
            f"transitions fired: {self.transitions_fired}",
            f"por: {'on' if self.por else 'off'},"
            f" pruned {self.por_pruned} interleavings",
            f"sym: {'on' if self.sym else 'off'},"
            f" merged {self.sym_merged} symmetric states",
            f"elapsed: {self.elapsed_s:.3f}s",
        ]
        if self.witness is not None:
            lines.append("counterexample:")
            lines.append("  " + self.witness.format().replace("\n", "\n  "))
        return "\n".join(lines)


def check_deadlock(
    system: SystemGraph,
    ordering: ChannelOrdering | None = None,
    *,
    por: bool = True,
    budget_states: int = DEFAULT_BUDGET_STATES,
    budget_seconds: float | None = None,
    sym: bool = False,
) -> VerificationResult:
    """Exhaustively decide deadlock reachability, within budget.

    With a registry active (:func:`repro.obs.collect`), the run reports
    under the stable ``verify.*`` names (``docs/OBSERVABILITY.md``).

    Args:
        system: The topology under verification.
        ordering: Statement orders (default: declaration order).
        por: Stubborn-set partial-order reduction (on by default;
            ``False`` explores the full interleaving — for benchmarks
            and for distrust).
        budget_states: Hard cap on states expanded; exceeding it yields
            an ``INCONCLUSIVE`` verdict, never a silent pass.
        budget_seconds: Optional wall-clock cap with the same contract.
        sym: Quotient-space symmetry reduction: canonicalize every BFS
            state to its orbit representative under the design's
            verified automorphism group (:mod:`repro.sym`) before the
            visited-set lookup.  Composes with the stubborn-set
            reduction; verdicts are unchanged (``docs/THEORY.md`` §8)
            and ``DEADLOCKED`` witnesses are pulled back to a concrete
            replayable schedule.  A trivial group degrades gracefully
            to the plain search.  Off by default: the stubborn-set
            walk already expands one state per step, and on the
            measured symmetric rings the quotient explores as many or
            more states, more slowly (``docs/VERIFICATION.md`` §2b).

    Raises:
        ValidationError: ``budget_states < 1`` or ``budget_seconds < 0``.
    """
    if budget_states < 1:
        raise ValidationError(f"budget_states must be >= 1, got {budget_states}")
    if budget_seconds is not None and budget_seconds < 0:
        raise ValidationError(
            f"budget_seconds must be >= 0, got {budget_seconds}"
        )
    ts = TransitionSystem(system, ordering)
    sym_engine = None
    if sym:
        from repro.sym.states import StateSymmetry

        sym_engine = StateSymmetry(ts)
        if sym_engine.trivial:
            sym_engine = None  # no symmetry: plain search, honestly flagged
    with timed("verify.search"):
        outcome = _search(
            ts, sym_engine, por, budget_states, budget_seconds,
            time.perf_counter(),
        )
    count("verify.runs")
    count("verify.states.explored", outcome.states_explored)
    count("verify.transitions", outcome.transitions_fired)
    count("verify.por.pruned", outcome.por_pruned)
    if outcome.sym:
        count("verify.sym.runs")
        count("verify.sym.merged", outcome.sym_merged)
    if outcome.deadlocked:
        count("verify.deadlocks")
    return outcome


#: Check the time budget only every so many expanded states: a
#: perf_counter call per state would dominate tiny searches.
TIME_CHECK_EVERY = 256


def _search(
    ts: TransitionSystem,
    sym: "StateSymmetry | None",
    por: bool,
    budget_states: int,
    budget_seconds: float | None,
    start: float,
) -> VerificationResult:
    """Breadth-first search over action ids, plain or quotient.

    With ``sym`` set, every explored state is the canonical
    representative of its orbit under the IR's verified automorphism
    group, so symmetric copies of a state are expanded once.  Soundness
    (``docs/THEORY.md`` §8): an automorphism commutes with the successor
    relation and preserves deadlockedness, so a deadlock is reachable in
    the quotient iff one is reachable concretely.  Parent entries then
    also record the canonicalizing permutation of each step, letting the
    witness reconstruction pull the representative-frame schedule back
    to a concrete replayable one.
    """
    initial = ts.initial_state()
    initial_pi = None
    if sym is not None:
        from repro.sym.perm import is_identity_pair

        initial, initial_pi = sym.canonicalize(initial)
    # state -> (parent, action id) for the plain search; for the quotient
    # search, rep -> (parent rep, action id in the parent's frame, pi)
    # with rep == pi(successor(parent, action)).
    parents: dict[State, tuple | None] = {initial: None}
    # Each state with its enabled ids when the plain POR walk derived them
    # from its parent's (TransitionSystem.enabled_after), else None.
    frontier: deque[tuple[State, tuple[int, ...] | None]] = deque(
        [(initial, None)]
    )
    incremental = por and sym is None
    explored = 0
    fired = 0
    pruned = 0
    merged = 0

    def finish(
        verdict: Verdict, reason: str, witness: DeadlockWitness | None = None
    ) -> VerificationResult:
        return VerificationResult(
            verdict=verdict,
            witness=witness,
            states_explored=explored,
            transitions_fired=fired,
            por_pruned=pruned,
            state_space_bound=ts.state_space_bound(),
            elapsed_s=time.perf_counter() - start,
            budget_states=budget_states,
            budget_seconds=budget_seconds,
            reason=reason,
            por=por,
            sym=sym is not None,
            sym_merged=merged,
        )

    while frontier:
        if explored == budget_states:
            return finish(
                Verdict.INCONCLUSIVE,
                f"state budget exceeded ({budget_states} states)",
            )
        if (
            budget_seconds is not None
            and explored % TIME_CHECK_EVERY == 0
            and time.perf_counter() - start > budget_seconds
        ):
            return finish(
                Verdict.INCONCLUSIVE,
                f"time budget exceeded ({budget_seconds}s)",
            )
        state, enabled = frontier.popleft()
        explored += 1
        if enabled is None:
            enabled = ts.enabled(state)
        if not enabled:
            if ts.is_deadlock(state):
                witness = _witness(ts, sym, parents, state, initial_pi)
                return finish(
                    Verdict.DEADLOCKED,
                    "deadlocked state reachable in "
                    f"{len(witness.schedule)} steps",
                    witness,
                )
            continue  # no communicating process: nothing to do, nothing stuck
        if por and len(enabled) > 1:
            expand = stubborn_set(ts, state, enabled)
            pruned += len(enabled) - len(expand)
        else:
            expand = enabled
        for action in expand:
            fired += 1
            successor = ts.successor(state, action)
            if sym is None:
                if successor not in parents:
                    parents[successor] = (state, action)
                    frontier.append((successor, ts.enabled_after(
                        enabled, action, successor
                    ) if incremental else None))
                continue
            rep, pi = sym.canonicalize(successor)
            if not is_identity_pair(pi):
                merged += 1
            if rep not in parents:
                parents[rep] = (state, action, pi)
                frontier.append((rep, None))
    enumerated = (
        "reachable states" if sym is None else "reachable orbit representatives"
    )
    return finish(
        Verdict.DEADLOCK_FREE,
        f"all {explored} {enumerated} enumerated, none deadlocked",
    )


def _witness(
    ts: TransitionSystem,
    sym: "StateSymmetry | None",
    parents: dict[State, tuple | None],
    state: State,
    initial_pi: "PairPerm | None",
) -> DeadlockWitness:
    """Walk the parent entries back from a deadlocked ``state`` and decode
    the schedule to :class:`Action` names.

    In the quotient search, replay the steps forward tracking the
    cumulative frame map sigma (concrete -> representative): sigma_0 =
    pi_0, the concrete action is sigma_i^-1(a_{i+1}), and sigma_{i+1} =
    pi_{i+1} o sigma_i.
    """
    steps: list[tuple] = []
    cursor = state
    while (entry := parents[cursor]) is not None:
        steps.append(entry)
        cursor = entry[0]
    steps.reverse()
    if sym is None:
        schedule = tuple(ts.action(action) for _, action in steps)
        return decode_deadlock(ts, state, schedule)
    from repro.sym.perm import compose_pair, invert_pair

    assert initial_pi is not None
    sigma = initial_pi
    concrete: list[Action] = []
    for _, action, pi in steps:
        concrete.append(sym.map_action(invert_pair(sigma), ts.action(action)))
        sigma = compose_pair(pi, sigma)
    return decode_deadlock(
        ts, sym.apply(invert_pair(sigma), state), tuple(concrete)
    )


#: Systems at or below this many processes + channels are "small": the
#: explorer machine-checks Algorithm 1's output on them after every
#: reordering (state spaces this size verify in well under a second).
SMALL_SYSTEM_LIMIT = 48


def is_small_system(system: SystemGraph) -> bool:
    """True when the explorer's post-Algorithm-1 verification applies."""
    return len(system.processes) + len(system.channels) <= SMALL_SYSTEM_LIMIT


def verify_ordering(
    system: SystemGraph,
    ordering: ChannelOrdering,
    *,
    por: bool = True,
    budget_states: int = DEFAULT_BUDGET_STATES,
    budget_seconds: float | None = None,
    sym: bool = False,
) -> VerificationResult:
    """Machine-check that ``ordering`` cannot deadlock — strictly.

    The strict form of :func:`check_deadlock` the DSE explorer runs on
    Algorithm 1's output: a ``DEADLOCKED`` verdict raises
    :class:`~repro.errors.DeadlockError` carrying the witness cycle, and
    an ``INCONCLUSIVE`` verdict raises
    :class:`~repro.errors.BudgetExceeded` — a budget can defer the
    guarantee, never silently grant it.
    """
    result = check_deadlock(
        system,
        ordering,
        por=por,
        budget_states=budget_states,
        budget_seconds=budget_seconds,
        sym=sym,
    )
    if result.verdict is Verdict.INCONCLUSIVE:
        raise BudgetExceeded(
            f"verification of {system.name!r} is inconclusive: "
            f"{result.reason}; raise the budget to obtain a verdict"
        )
    if result.verdict is Verdict.DEADLOCKED:
        witness = result.witness
        assert witness is not None
        raise DeadlockError(
            f"system {system.name!r} deadlocks under the verified ordering; "
            f"witness schedule of {len(witness.schedule)} steps: "
            + witness.format_schedule(),
            cycle=list(witness.cycle),
        )
    return result
