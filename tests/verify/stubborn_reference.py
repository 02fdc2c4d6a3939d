"""Name-keyed reference for the enabled actions (test oracle).

The differential oracle for :meth:`TransitionSystem.enabled
<repro.verify.semantics.TransitionSystem.enabled>`: enabledness
re-derived over :class:`~repro.verify.semantics.Action` names from
statement kinds and occupancies.  It reads only the name-keyed views of
a :class:`~repro.verify.semantics.TransitionSystem` that
:mod:`tests.verify.statement_reference` decodes from its ``ir``, never
the integer tables it checks.
"""

from __future__ import annotations

from repro.verify.semantics import (
    Action,
    ActionKind,
    State,
    TransitionSystem,
)

from tests.verify.statement_reference import (
    CommStatement,
    buffered_names,
    chains,
    process_names,
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
    return channel in buffered_names(ts)


def capacity(ts: TransitionSystem, channel: str) -> int:
    ir = ts.ir
    return ir.effective_capacities[ir.cid(channel)]


def occupancy(ts: TransitionSystem, state: State, channel: str) -> int:
    return state[1][buffered_names(ts).index(channel)]


def statement_at(
    ts: TransitionSystem, state: State, process: str
) -> CommStatement:
    return chains(ts)[process][state[0][process_names(ts).index(process)]]


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
        for process in process_names(ts)
        if is_enabled(ts, state, action := current_action(ts, state, process))
    }
    return tuple(sorted(enabled, key=lambda a: (a.channel, a.kind.value)))

