"""Stubborn-set partial-order reduction for the deadlock search.

The naive search interleaves every enabled action at every state, so two
independent rendezvous — say, on opposite ends of a pipeline — double the
frontier even though both orders reach the same state (the diamond
property of :mod:`repro.verify.semantics`).  A *stubborn set* is a subset
of the enabled actions that is sound to explore exclusively: the classic
theorem (Valmari 1991; Godefroid 1996, persistent sets) states that a
selective search that expands a nonempty stubborn set at every state
visits **every reachable deadlock state**.  Deadlock preservation needs no
cycle proviso — that is what makes the reduction both simple and exact
for the property this checker decides.

Construction (the standard insertion algorithm, specialized to the
blocking-channel dependency structure):

* seed the closure with one enabled action;
* an **enabled** action in the closure pulls in every action *dependent*
  on it — here, syntactic dependence: sharing an endpoint process or
  naming the same channel (anything else commutes and cannot be disabled,
  see the diamond lemma in ``docs/VERIFICATION.md``);
* a **disabled** action in the closure pulls in one *necessary enabling
  set*: a set of actions, at least one of which must fire before the
  disabled action can become enabled.  A misplaced endpoint process can
  only move through its current action; an empty buffer needs the
  channel's put; a full buffer needs its get.

The stubborn set returned is the enabled subset of the closure.  Seeds
are tried in deterministic order and the smallest result wins (ties go to
the lexicographically first), so runs are reproducible action for action.

Everything runs on the integer action ids and tables of
:class:`~repro.verify.semantics.TransitionSystem`; the dependents of an
action are a static table, since syntactic dependence does not depend on
the state.  One exact bound prunes the seed loop: a closure only grows,
and a later seed replaces the best set only when strictly smaller, so a
closure is abandoned as soon as its enabled members reach the size of
the best set so far — it could never win.
"""

from __future__ import annotations

from repro.verify.semantics import State, TransitionSystem


def stubborn_set(
    ts: TransitionSystem, state: State, enabled: tuple[int, ...]
) -> tuple[int, ...]:
    """A nonempty stubborn subset of the action ids ``enabled`` (assumed
    nonempty and ascending), itself ascending."""
    enabled_set = frozenset(enabled)
    best: tuple[int, ...] = enabled
    limit = len(enabled) + 1  # no bound until a first closure completes
    for seed in enabled:
        candidate = _closure(ts, state, seed, enabled_set, limit)
        if candidate is None:
            continue  # reached the best size: cannot be strictly smaller
        if len(candidate) == 1:
            return candidate  # cannot do better than a singleton
        best, limit = candidate, len(candidate)
    return best


def _closure(
    ts: TransitionSystem,
    state: State,
    seed: int,
    enabled: frozenset[int],
    limit: int,
) -> tuple[int, ...] | None:
    """Close ``{seed}`` under the stubborn conditions; return its enabled
    members in ascending order, or ``None`` as soon as there are
    ``limit`` of them."""
    dependents = ts.dependents
    closure = {seed}
    chosen = [seed]
    work = [seed]
    while work:
        action = work.pop()
        if action in enabled:
            additions: tuple[int, ...] = dependents[action]
        else:
            enabler = _necessary_enabler(ts, state, action, closure)
            if enabler is None:
                continue
            additions = (enabler,)
        for other in additions:
            if other not in closure:
                closure.add(other)
                work.append(other)
                if other in enabled:
                    chosen.append(other)
                    if len(chosen) >= limit:
                        return None
    chosen.sort()
    return tuple(chosen)


def _necessary_enabler(
    ts: TransitionSystem, state: State, action: int, closure: set[int]
) -> int | None:
    """An action that must fire before the disabled ``action`` can
    enable, or ``None`` when one already is in the closure.

    For each failing precondition there is an exact necessary set of one
    action: an endpoint process not at its side of ``action`` can only
    advance through its current action; an empty buffer can only fill
    through its put; a full buffer can only drain through its get.  When
    several preconditions fail, any one suffices for soundness — prefer
    one already in the closure (which adds nothing, keeping stubborn
    sets small), else take the first, checking endpoints before the
    buffer.
    """
    indices, occupancies = state
    first: int | None = None
    for slot in ts.action_slots[action]:
        current = ts.chain_actions[slot][indices[slot]]
        if current != action:
            if current in closure:
                return None
            if first is None:
                first = current
    delta = ts.action_delta[action]
    if delta:
        queued = occupancies[ts.action_buffer[action]]
        if delta > 0:
            starved = queued >= ts.action_capacity[action]  # needs the get
        else:
            starved = queued == 0  # needs the put
        if starved:
            counterpart = ts.action_counterpart[action]
            if counterpart in closure:
                return None
            if first is None:
                first = counterpart
    return first
