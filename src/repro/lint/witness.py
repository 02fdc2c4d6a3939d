"""Explaining a deadlock witness in design vocabulary.

:attr:`repro.model.build.StructureEntry.circular_wait` decodes a
token-free cycle once, into process and channel names and one ``(process,
index, waits_for)`` triple per statement place on the cycle: that process
refuses to run its statement ``index`` before ``waits_for`` completes.
These helpers render such a statement — which get or put, at which
position of which process's chain — so a designer can see exactly which
specification lines to swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.system import ChannelOrdering


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
    ordering: ChannelOrdering,
    statements: Iterable[tuple[str, int, str | None]],
) -> str:
    """The circular wait as one arrow-joined line of blocked statements.

    ``statements`` are the ``(process, index, waits_for)`` triples of
    :attr:`~repro.model.build.CircularWait.statements`.  Example (the
    paper's Listing-1 deadlock)::

        P2 puts 'f' (put 3/3) only after serving 'd' [statement 5/5] ->
        P5 computes only after serving 'f' [statement 2/3] -> ...
    """
    return " -> ".join(
        statement_at(ordering, process, index, waits_for).format()
        for process, index, waits_for in statements
    )
