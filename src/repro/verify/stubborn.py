"""Stubborn-set partial-order reduction for the deadlock search.

The naive search interleaves every enabled action at every state, so two
independent rendezvous — say, on opposite ends of a pipeline — double the
frontier even though both orders reach the same state (the diamond
property of :mod:`repro.verify.semantics`).  A *stubborn set* is a subset
of the enabled actions that is sound to explore exclusively: the classic
theorem (Valmari 1991; Godefroid 1996, persistent sets) states that a
selective search that expands a nonempty stubborn set at every state
visits **every reachable deadlock state**.  Deadlock preservation needs no
cycle proviso.

Here every single enabled action is a stubborn set.  The untimed
projection of the marked graph is *persistent*: an enabled action ``t``
is never disabled by another action, and co-enabled actions commute.  So
for any sequence ``w`` of other actions from a state, ``t`` stays enabled
along ``w`` and ``w t`` reaches the state ``t w`` reaches — exactly the
stubborn-set conditions for ``{t}`` (``docs/VERIFICATION.md`` §2).

With one successor per state the reduced search is a deterministic
firing walk.  It either stops at a deadlock — by Keller's theorem every
maximal run of a persistent system reaches the same terminal state in
the same number of steps, so the witness is as short as the naive
search's — or it revisits a state, which proves deadlock freedom.
"""

from __future__ import annotations

from repro.verify.semantics import State, TransitionSystem


def stubborn_set(
    ts: TransitionSystem, state: State, enabled: tuple[int, ...]
) -> tuple[int, ...]:
    """The singleton stubborn set of the smallest id in ``enabled``
    (assumed nonempty and ascending)."""
    return enabled[:1]
