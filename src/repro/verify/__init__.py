"""``repro.verify`` — explicit-state verification of blocking-channel systems.

The third leg of the reproduction's deadlock story.  The TMG liveness
test (:mod:`repro.tmg.deadlock`) is *structural*: exact for pure
rendezvous marked graphs, an abstraction once buffered channels and
initial tokens enter.  The simulator observes *one* schedule.  This
package decides the property **exhaustively**: it enumerates the
reachable states of the exact untimed semantics (per-process statement
index, per-channel occupancy) and either proves deadlock freedom, ships
a replayable counterexample, or says — explicitly — that the budget ran
out.

Typical use::

    from repro.verify import check_deadlock, Verdict

    result = check_deadlock(system, ordering, budget_states=100_000)
    if result.verdict is Verdict.DEADLOCKED:
        print(result.witness.format())

The pieces:

* :mod:`repro.verify.semantics` — the finite transition system;
* :mod:`repro.verify.stubborn` — stubborn-set partial-order reduction
  (sound for deadlock detection without a cycle proviso);
* :mod:`repro.verify.checker` — budgeted BFS, three-valued
  :class:`Verdict`, and the strict :func:`verify_ordering` the DSE
  explorer runs on Algorithm 1's output;
* :mod:`repro.verify.witness` — counterexample decoding and replay.

The CLI front end is ``ermes verify``; the lint integration is the
``ERM5xx`` rule family (``docs/LINT_RULES.md``).  Semantics, the POR
soundness argument, and the witness format are documented in
``docs/VERIFICATION.md``.
"""

from repro.verify.checker import VerificationResult, Verdict, check_deadlock
from repro.verify.semantics import State
from repro.verify.witness import replay_witness

__all__ = [
    "State",
    "VerificationResult",
    "Verdict",
    "check_deadlock",
    "replay_witness",
]
