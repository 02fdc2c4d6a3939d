"""Explaining a deadlock witness in design vocabulary.

:func:`repro.model.performance.deadlock_cycle` returns the circular wait
as a cycle of TMG *transition* names mapped back to system elements —
channel names and process (computation) names.  Each edge of that cycle
is a token-free place, and every such place belongs to exactly one
process's serial statement chain: the edge ``u -> v`` means some process
refuses to serve ``v`` before it has served ``u``.  These helpers recover
that statement — which get or put, at which position of which process's
chain — so a designer can see exactly which specification lines to swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.system import ChannelOrdering, SystemGraph


@dataclass(frozen=True)
class BlockedStatement:
    """One hop of a circular wait: a statement that refuses to run first.

    ``process`` insists on completing ``waits_for`` (a channel name, or
    ``None`` for its computation phase) before serving ``channel`` (again
    ``None`` when the blocked statement is the computation).  ``index`` is
    the 1-based position of the blocked statement in the process's serial
    chain of length ``total``; ``position``/``count`` rank it among the
    process's gets or puts alone.
    """

    process: str
    kind: str  # "get" | "put" | "compute"
    channel: str | None
    index: int
    total: int
    position: int
    count: int
    waits_for: str | None  # channel completing before this statement

    def _statement(self) -> str:
        if self.kind == "compute":
            return f"{self.process} computes"
        return (
            f"{self.process} {self.kind}s {self.channel!r} "
            f"({self.kind} {self.position}/{self.count})"
        )

    def format(self) -> str:
        after = (
            f"serving {self.waits_for!r}"
            if self.waits_for is not None
            else "computing"
        )
        return (
            f"{self._statement()} only after {after} "
            f"[statement {self.index}/{self.total}]"
        )


def witness_statements(
    system: SystemGraph,
    ordering: ChannelOrdering,
    cycle: Sequence[str],
) -> list[BlockedStatement]:
    """Decode every edge of ``cycle`` into the statement that blocks.

    For each consecutive pair ``(u, v)`` of the cycle, finds the process
    whose statement chain serves ``v`` directly after ``u`` (chains are
    cyclic: the first statement follows the last).  Edges that no chain
    explains (possible only for hand-made cycles) are skipped.
    """
    statements: list[BlockedStatement] = []
    n = len(cycle)
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        hop = _explain_edge(system, ordering, u, v)
        if hop is not None:
            statements.append(hop)
    return statements


def _explain_edge(
    system: SystemGraph,
    ordering: ChannelOrdering,
    u: str,
    v: str,
) -> BlockedStatement | None:
    """The statement behind the token-free place ``u -> v``, if any."""
    candidates: list[str]
    if system.has_process(u):
        candidates = [u]
    elif system.has_process(v):
        candidates = [v]
    else:
        # channel -> channel: the owning process touches both endpoints.
        u_ends = {system.channel(u).producer, system.channel(u).consumer}
        v_ends = {system.channel(v).producer, system.channel(v).consumer}
        candidates = sorted(u_ends & v_ends)
    for process in candidates:
        # The cyclic chain as element names: get/put statements map to
        # their channel, compute to the process.
        chain = ordering.statements_of(process)
        elements = [
            process if kind == "compute" else target for kind, target in chain
        ]
        length = len(chain)
        for j in range(length):
            if elements[j] == v and elements[(j - 1) % length] == u:
                return statement_at(
                    ordering, process, j, None if u == process else u
                )
    return None


def statement_at(
    ordering: ChannelOrdering,
    process: str,
    index: int,
    waits_for: str | None,
) -> BlockedStatement:
    """Statement ``index`` (0-based) of ``process``'s serial chain
    (:meth:`~repro.core.system.ChannelOrdering.statements_of`: gets,
    compute, puts), blocked until ``waits_for`` completes."""
    chain = ordering.statements_of(process)
    kind, target = chain[index]
    same_kind = [t for k, t in chain if k == kind]
    return BlockedStatement(
        process=process,
        kind=kind,
        channel=None if kind == "compute" else target,
        index=index + 1,
        total=len(chain),
        position=same_kind.index(target) + 1,
        count=len(same_kind),
        waits_for=waits_for,
    )


def format_witness(
    system: SystemGraph,
    ordering: ChannelOrdering,
    cycle: Sequence[str],
) -> str:
    """The circular wait as one arrow-joined line of blocked statements.

    Example (the paper's Section 2 deadlock)::

        P2 puts 'f' (put 3/3) only after serving 'd' [statement 7/7] ->
        P5 computes only after serving 'f' [statement 2/3] -> ...

    Falls back to the raw name cycle when no edge maps to a statement.
    """
    statements = witness_statements(system, ordering, cycle)
    if not statements:
        return " -> ".join(cycle)
    return " -> ".join(s.format() for s in statements)
