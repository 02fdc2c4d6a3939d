"""Counterexample extraction: a deadlocked state as a designer-readable,
replayable witness.

A ``DEADLOCKED`` verdict would be useless as a bare state tuple.  This
module decodes it three ways:

* the **schedule** — the action sequence (shortest among the explored
  interleavings) that drives the initial state into the deadlock; it
  replays step by step through :func:`replay_schedule`, so the verdict is
  checkable without trusting the search;
* the **blocked configuration** — which statement every process is stuck
  at, the same information the simulator reports when it hits the
  deadlock at runtime;
* the **circular wait** — the cycle of refusals behind the deadlock,
  decoded into the statement-indexed
  :class:`~repro.lint.witness.BlockedStatement` vocabulary the ERM2xx
  lint witnesses already use, so ``ermes verify`` and ``ermes lint`` read
  the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import VerificationError
from repro.lint.witness import BlockedStatement, statement_at
from repro.verify.semantics import Action, State, TransitionSystem


@dataclass(frozen=True)
class DeadlockWitness:
    """A replayable counterexample for a ``DEADLOCKED`` verdict.

    Attributes:
        schedule: Actions from the initial state to the deadlocked state.
        blocked: ``(process, channel)`` pairs, sorted by process: the
            statement each communicating process is blocked on.
        cycle: The circular wait as alternating process/channel names,
            in the vocabulary of the structural witness
            (:attr:`repro.model.build.CircularWait.cycle`).
        statements: The cycle decoded hop by hop into blocked statements.
        state: The raw deadlocked state (for replay assertions).
    """

    schedule: tuple[Action, ...]
    blocked: tuple[tuple[str, str], ...]
    cycle: tuple[str, ...]
    statements: tuple[BlockedStatement, ...]
    state: State

    def format_schedule(self) -> str:
        """The schedule as one arrow-joined line."""
        return " -> ".join(action.format() for action in self.schedule)

    def format(self) -> str:
        """Multi-line rendering: schedule, blocked set, circular wait."""
        lines = [
            f"schedule ({len(self.schedule)} steps): "
            + (self.format_schedule() or "<initial state>"),
            "blocked: "
            + ", ".join(f"{p} on {c}" for p, c in self.blocked),
        ]
        if self.statements:
            lines.append("circular wait:")
            for statement in self.statements:
                lines.append("  " + statement.format())
        return "\n".join(lines)


def decode_deadlock(
    ts: TransitionSystem, state: State, schedule: tuple[Action, ...]
) -> DeadlockWitness:
    """Decode a deadlocked ``state`` into a :class:`DeadlockWitness`."""
    blocked = ts.blocked_map(state)
    wait_for = ts.wait_for_edges(state)
    process_cycle = _functional_cycle(wait_for)
    cycle: list[str] = []
    statements: list[BlockedStatement] = []
    for i, process in enumerate(process_cycle):
        waited_channel = blocked[process]
        cycle.append(process)
        cycle.append(waited_channel)
        server = process_cycle[(i + 1) % len(process_cycle)]
        statements.append(
            _refusal_statement(
                ts.ordering, server, waited_channel, blocked[server]
            )
        )
    return DeadlockWitness(
        schedule=schedule,
        blocked=tuple(sorted(blocked.items())),
        cycle=tuple(cycle),
        statements=tuple(statements),
        state=state,
    )


def _refusal_statement(
    ordering: ChannelOrdering,
    server: str,
    waited_channel: str,
    busy_channel: str,
) -> BlockedStatement:
    """Why ``server`` does not serve ``waited_channel``: it insists on
    completing ``busy_channel`` (its current statement) first."""
    index = next(
        j
        for j, (kind, target) in enumerate(ordering.statements_of(server))
        if kind != "compute" and target == waited_channel
    )
    return statement_at(ordering, server, index, busy_channel)


def _functional_cycle(wait_for: dict[str, str]) -> tuple[str, ...]:
    """The (unique per component) cycle of a functional wait-for graph.

    In a deadlocked state every communicating process has exactly one
    outgoing wait-for edge, so following edges from any node must loop.
    Starts the returned cycle at its lexicographically smallest member
    for determinism.
    """
    seen: set[str] = set()
    for root in sorted(wait_for):
        if root in seen:
            continue
        path: list[str] = []
        index: dict[str, int] = {}
        node = root
        while node not in index:
            if node in seen:
                break
            index[node] = len(path)
            path.append(node)
            node = wait_for[node]
        else:
            cycle = path[index[node]:]
            smallest = cycle.index(min(cycle))
            return tuple(cycle[smallest:] + cycle[:smallest])
        seen.update(path)
    raise VerificationError(
        "no circular wait in a supposedly deadlocked state"
    )


def replay_schedule(
    system: SystemGraph,
    ordering: ChannelOrdering | None,
    schedule: tuple[Action, ...],
) -> State:
    """Re-execute ``schedule`` from the initial state, checking every step.

    Raises :class:`~repro.errors.VerificationError` on the first action
    that is not enabled — a witness that fails to replay is a checker
    bug, and this function is exactly how the tests (and a skeptical
    user) establish that no such bug is present.
    """
    ts = TransitionSystem(system, ordering)
    state = ts.initial_state()
    for step, action in enumerate(schedule):
        action_id = ts.action_id(action)
        if action_id is None or action_id not in ts.enabled(state):
            raise VerificationError(
                f"witness schedule does not replay: step {step} "
                f"({action.format()}) is not enabled"
            )
        state = ts.successor(state, action_id)
    return state


def replay_witness(
    system: SystemGraph,
    ordering: ChannelOrdering | None,
    witness: DeadlockWitness,
) -> State:
    """Replay a witness end to end and check it lands in its deadlock.

    Returns the final state after asserting that (a) the schedule
    replays, (b) the final state is deadlocked, and (c) its blocked
    configuration matches the witness's claim.
    """
    ts = TransitionSystem(system, ordering)
    state = replay_schedule(system, ordering, witness.schedule)
    if not ts.is_deadlock(state):
        raise VerificationError(
            "witness schedule replays but does not end in a deadlock"
        )
    blocked = tuple(sorted(ts.blocked_map(state).items()))
    if blocked != witness.blocked:
        raise VerificationError(
            "witness schedule ends in a different blocked configuration: "
            f"{blocked} != {witness.blocked}"
        )
    return state
