"""Name-keyed reference for the stubborn-set reduction (test oracle).

The differential oracle for :mod:`repro.verify.stubborn`: the original
insertion algorithm over :class:`~repro.verify.semantics.Action` names,
re-deriving dependents from statement chains on every closure step and
enabledness from statement kinds and occupancies.  It reads only the
name-keyed views of a :class:`~repro.verify.semantics.TransitionSystem`
(``chains``, ``process_names``, ``buffered_names``, ``ir``), never the
integer tables it checks.
"""

from __future__ import annotations

from repro.verify.semantics import (
    Action,
    ActionKind,
    CommStatement,
    State,
    TransitionSystem,
)


# ----------------------------------------------------------------------
# Name-keyed views of the transition system
# ----------------------------------------------------------------------


def _producer(ts: TransitionSystem, channel: str) -> str:
    ir = ts.ir
    return ir.processes[ir.producers[ir.cid(channel)]]


def _consumer(ts: TransitionSystem, channel: str) -> str:
    ir = ts.ir
    return ir.processes[ir.consumers[ir.cid(channel)]]


def is_buffered(ts: TransitionSystem, channel: str) -> bool:
    return channel in ts.buffered_names


def capacity(ts: TransitionSystem, channel: str) -> int:
    ir = ts.ir
    return ir.effective_capacities[ir.cid(channel)]


def occupancy(ts: TransitionSystem, state: State, channel: str) -> int:
    return state[1][ts.buffered_names.index(channel)]


def statement_at(
    ts: TransitionSystem, state: State, process: str
) -> CommStatement:
    return ts.chains[process][state[0][ts.process_names.index(process)]]


def endpoints(ts: TransitionSystem, action: Action) -> tuple[str, ...]:
    if action.kind is ActionKind.RENDEZVOUS:
        return (_producer(ts, action.channel), _consumer(ts, action.channel))
    if action.kind is ActionKind.PUT:
        return (_producer(ts, action.channel),)
    return (_consumer(ts, action.channel),)


def current_action(ts: TransitionSystem, state: State, process: str) -> Action:
    statement = statement_at(ts, state, process)
    if not is_buffered(ts, statement.channel):
        return Action(ActionKind.RENDEZVOUS, statement.channel)
    if statement.kind == "put":
        return Action(ActionKind.PUT, statement.channel)
    return Action(ActionKind.GET, statement.channel)


def is_enabled(ts: TransitionSystem, state: State, action: Action) -> bool:
    channel = action.channel
    if action.kind is ActionKind.RENDEZVOUS:
        producer, consumer = endpoints(ts, action)
        put = statement_at(ts, state, producer)
        get = statement_at(ts, state, consumer)
        return (put.kind, put.channel) == ("put", channel) and (
            get.kind,
            get.channel,
        ) == ("get", channel)
    (endpoint,) = endpoints(ts, action)
    statement = statement_at(ts, state, endpoint)
    if statement.channel != channel:
        return False
    if action.kind is ActionKind.PUT:
        return statement.kind == "put" and occupancy(
            ts, state, channel
        ) < capacity(ts, channel)
    return statement.kind == "get" and occupancy(ts, state, channel) > 0


def enabled_actions(ts: TransitionSystem, state: State) -> tuple[Action, ...]:
    """Every enabled action, sorted by ``(channel, kind.value)``."""
    enabled = {
        action
        for process in ts.process_names
        if is_enabled(ts, state, action := current_action(ts, state, process))
    }
    return tuple(sorted(enabled, key=lambda a: (a.channel, a.kind.value)))


# ----------------------------------------------------------------------
# The insertion algorithm
# ----------------------------------------------------------------------


def stubborn_set(
    ts: TransitionSystem, state: State, enabled: tuple[Action, ...]
) -> tuple[Action, ...]:
    """Smallest closure over all seeds (ties to the first), unbounded."""
    best: tuple[Action, ...] | None = None
    for seed in enabled:
        candidate = _closure(ts, state, seed, enabled)
        if len(candidate) == 1:
            return candidate
        if best is None or len(candidate) < len(best):
            best = candidate
    assert best is not None
    return best


def _closure(
    ts: TransitionSystem,
    state: State,
    seed: Action,
    enabled: tuple[Action, ...],
) -> tuple[Action, ...]:
    enabled_set = set(enabled)
    closure: set[Action] = {seed}
    work: list[Action] = [seed]
    while work:
        action = work.pop()
        if action in enabled_set:
            additions = _dependent_actions(ts, state, action)
        else:
            additions = _necessary_enabling_set(ts, state, action, closure)
        for other in additions:
            if other not in closure:
                closure.add(other)
                work.append(other)
    chosen = sorted(
        closure & enabled_set, key=lambda a: (a.channel, a.kind.value)
    )
    return tuple(chosen)


def _dependent_actions(
    ts: TransitionSystem, state: State, action: Action
) -> list[Action]:
    """Every action sharing a process or the channel with ``action``."""
    dependents: list[Action] = []
    seen: set[Action] = set()

    def add(other: Action) -> None:
        if other != action and other not in seen:
            seen.add(other)
            dependents.append(other)

    for process in endpoints(ts, action):
        for statement in ts.chains.get(process, ()):
            add(_channel_action_for(ts, statement.channel, process))
    if action.kind is ActionKind.PUT:
        add(Action(ActionKind.GET, action.channel))
    elif action.kind is ActionKind.GET:
        add(Action(ActionKind.PUT, action.channel))
    return dependents


def _channel_action_for(
    ts: TransitionSystem, channel: str, process: str
) -> Action:
    """The action ``process`` would perform on ``channel``."""
    if not is_buffered(ts, channel):
        return Action(ActionKind.RENDEZVOUS, channel)
    if _producer(ts, channel) == process:
        return Action(ActionKind.PUT, channel)
    return Action(ActionKind.GET, channel)


def _necessary_enabling_set(
    ts: TransitionSystem,
    state: State,
    action: Action,
    closure: set[Action],
) -> list[Action]:
    """Actions, one of which must fire before ``action`` can enable:
    the first candidate already in the closure, else the first."""
    candidates: list[list[Action]] = []
    channel = action.channel
    ends = endpoints(ts, action)
    for process in ends:
        statement = statement_at(ts, state, process)
        wrong_statement = statement.channel != channel or (
            action.kind is ActionKind.RENDEZVOUS
            and statement.kind != ("put" if process == ends[0] else "get")
        )
        if wrong_statement:
            candidates.append([current_action(ts, state, process)])
    if action.kind is ActionKind.PUT and occupancy(
        ts, state, channel
    ) >= capacity(ts, channel):
        candidates.append([Action(ActionKind.GET, channel)])
    if action.kind is ActionKind.GET and occupancy(ts, state, channel) == 0:
        candidates.append([Action(ActionKind.PUT, channel)])
    if not candidates:
        return []
    for candidate in candidates:
        if all(member in closure for member in candidate):
            return candidate
    return candidates[0]
