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
(:mod:`repro.verify.stubborn`); ``por=False`` selects the naive full
interleaving — same verdicts, exponentially more states (that gap is the
benchmark ``benchmarks/test_bench_verify.py`` tracks).
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import BudgetExceeded, DeadlockError, ValidationError
from repro.verify.semantics import Action, State, TransitionSystem
from repro.verify.stubborn import stubborn_set
from repro.verify.witness import DeadlockWitness, decode_deadlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
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
    use_certificate: bool = False,
    sym: bool = False,
    metrics: "MetricsRegistry | None" = None,
) -> VerificationResult:
    """Exhaustively decide deadlock reachability, within budget.

    Args:
        system: The topology under verification.
        ordering: Statement orders (default: declaration order).
        por: Stubborn-set partial-order reduction (on by default;
            ``False`` explores the full interleaving — for benchmarks
            and for distrust).
        budget_states: Hard cap on states expanded; exceeding it yields
            an ``INCONCLUSIVE`` verdict, never a silent pass.
        budget_seconds: Optional wall-clock cap with the same contract.
        use_certificate: Try a static deadlock-freedom certificate
            (:mod:`repro.absint`) before searching.  When one is issued
            *and independently re-validated* against the lowered IR, the
            run returns ``DEADLOCK_FREE`` with zero states explored —
            the budgets never come into play, so verification stays on
            at scales the BFS cannot touch.  When no certificate exists
            the search proceeds exactly as without the flag.  Off by
            default: callers pinning budget semantics (and the ERM5xx
            lint rules, whose job is the exhaustive answer) keep the
            plain search.
        sym: Quotient-space symmetry reduction: canonicalize every BFS
            state to its orbit representative under the design's
            verified automorphism group (:mod:`repro.sym`) before the
            visited-set lookup.  Composes with the stubborn-set
            reduction; verdicts are unchanged (``docs/THEORY.md`` §8)
            and ``DEADLOCKED`` witnesses are pulled back to a concrete
            replayable schedule.  A trivial group degrades gracefully
            to the plain search.
        metrics: Optional registry; the run reports under the stable
            ``verify.*`` names (``docs/OBSERVABILITY.md``).

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
    if use_certificate:
        from repro.absint import analyze_ir, check_certificate

        certificate = analyze_ir(ts.ir).certificate
        if certificate is not None:
            check_certificate(ts.ir, certificate)
            if metrics is not None:
                metrics.counter("verify.runs").add(1)
                metrics.counter("verify.certificates.accepted").add(1)
            return VerificationResult(
                verdict=Verdict.DEADLOCK_FREE,
                witness=None,
                states_explored=0,
                transitions_fired=0,
                por_pruned=0,
                state_space_bound=ts.state_space_bound(),
                elapsed_s=0.0,
                budget_states=budget_states,
                budget_seconds=budget_seconds,
                reason=(
                    "validated siphon-ranking certificate "
                    f"(ir {certificate.ir_hash[:12]}...) proves "
                    "deadlock-freedom without search"
                ),
                por=por,
            )
    sym_engine = None
    if sym:
        from repro.sym.states import StateSymmetry

        sym_engine = StateSymmetry(ts)
        if sym_engine.trivial:
            sym_engine = None  # no symmetry: plain search, honestly flagged
    timer_cm = (
        metrics.timer("verify.search") if metrics is not None else None
    )
    start = time.perf_counter()
    if timer_cm is not None:
        timer_cm.__enter__()
    try:
        outcome = _search(
            ts, sym_engine, por, budget_states, budget_seconds, start
        )
    finally:
        if timer_cm is not None:
            timer_cm.__exit__(None, None, None)
    if metrics is not None:
        metrics.counter("verify.runs").add(1)
        metrics.counter("verify.states.explored").add(outcome.states_explored)
        metrics.counter("verify.transitions").add(outcome.transitions_fired)
        metrics.counter("verify.por.pruned").add(outcome.por_pruned)
        if outcome.sym:
            metrics.counter("verify.sym.runs").add(1)
            metrics.counter("verify.sym.merged").add(outcome.sym_merged)
        if outcome.deadlocked:
            metrics.counter("verify.deadlocks").add(1)
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
    frontier: deque[State] = deque([initial])
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
        state = frontier.popleft()
        explored += 1
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
                    frontier.append(successor)
                continue
            rep, pi = sym.canonicalize(successor)
            if not is_identity_pair(pi):
                merged += 1
            if rep not in parents:
                parents[rep] = (state, action, pi)
                frontier.append(rep)
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
    use_certificate: bool = False,
    sym: bool = False,
    metrics: "MetricsRegistry | None" = None,
) -> VerificationResult:
    """Machine-check that ``ordering`` cannot deadlock — strictly.

    The strict form of :func:`check_deadlock` the DSE explorer runs on
    Algorithm 1's output: a ``DEADLOCKED`` verdict raises
    :class:`~repro.errors.DeadlockError` carrying the witness cycle, and
    an ``INCONCLUSIVE`` verdict raises
    :class:`~repro.errors.BudgetExceeded` — a budget can defer the
    guarantee, never silently grant it.  With ``use_certificate=True`` a
    validated static certificate short-circuits the search entirely (see
    :func:`check_deadlock`), which is what lifts the
    :data:`SMALL_SYSTEM_LIMIT` gate at MPEG-2 scale.
    """
    result = check_deadlock(
        system,
        ordering,
        por=por,
        budget_states=budget_states,
        budget_seconds=budget_seconds,
        use_certificate=use_certificate,
        sym=sym,
        metrics=metrics,
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
