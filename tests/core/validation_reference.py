"""Reference structural validation: the per-node walk over the graph API.

The oracle for :func:`repro.core.validation.structural_diagnostics`,
which builds its census and reachability adjacency once from the channel
table.  This version asks the :class:`~repro.core.system.SystemGraph`
accessors for every node's ports and neighbours instead, exactly as the
library did before the linear rewrite; the two must report the same
diagnostics in the same order (``tests/core/test_validation_oracle.py``).
"""

from __future__ import annotations

from collections import deque

from repro.core.system import ChannelOrdering, ProcessKind, SystemGraph
from repro.core.validation import ordering_diagnostics
from repro.diagnostics import Diagnostic, Severity


def structural_diagnostics(
    system: SystemGraph, ordering: ChannelOrdering | None = None
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    if not system.workers():
        diagnostics.append(
            Diagnostic(
                rule="ERM101",
                severity=Severity.ERROR,
                message=f"system {system.name!r} has no worker processes",
                location=(system.name,),
            )
        )

    for process in system.processes:
        n_in = len(system.input_channels(process.name))
        n_out = len(system.output_channels(process.name))
        if process.kind is ProcessKind.SOURCE and n_in:
            diagnostics.append(
                Diagnostic(
                    rule="ERM102",
                    severity=Severity.ERROR,
                    message=(
                        f"source {process.name!r} must not have input "
                        f"channels (has {n_in})"
                    ),
                    location=(process.name,),
                )
            )
        if process.kind is ProcessKind.SINK and n_out:
            diagnostics.append(
                Diagnostic(
                    rule="ERM103",
                    severity=Severity.ERROR,
                    message=(
                        f"sink {process.name!r} must not have output "
                        f"channels (has {n_out})"
                    ),
                    location=(process.name,),
                )
            )
        if process.kind is ProcessKind.WORKER:
            if n_in == 0:
                diagnostics.append(
                    Diagnostic(
                        rule="ERM104",
                        severity=Severity.ERROR,
                        message=(
                            f"worker {process.name!r} has no input channels; "
                            "model free-running producers as testbench sources"
                        ),
                        location=(process.name,),
                    )
                )
            if n_out == 0:
                diagnostics.append(
                    Diagnostic(
                        rule="ERM105",
                        severity=Severity.ERROR,
                        message=(
                            f"worker {process.name!r} has no output channels; "
                            "model pure consumers as testbench sinks"
                        ),
                        location=(process.name,),
                    )
                )

    if system.sources():
        unreachable = _unreachable_from(
            system, {p.name for p in system.sources()}, forward=True
        )
        if unreachable:
            diagnostics.append(
                Diagnostic(
                    rule="ERM106",
                    severity=Severity.ERROR,
                    message=(
                        "processes not reachable from any source: "
                        f"{sorted(unreachable)}"
                    ),
                    location=tuple(sorted(unreachable)),
                )
            )
    if system.sinks():
        cannot_reach = _unreachable_from(
            system, {p.name for p in system.sinks()}, forward=False
        )
        if cannot_reach:
            diagnostics.append(
                Diagnostic(
                    rule="ERM107",
                    severity=Severity.ERROR,
                    message=(
                        "processes that cannot reach any sink: "
                        f"{sorted(cannot_reach)}"
                    ),
                    location=tuple(sorted(cannot_reach)),
                )
            )

    if ordering is not None:
        diagnostics.extend(ordering_diagnostics(system, ordering))
    return diagnostics


def _unreachable_from(
    system: SystemGraph, roots: set[str], forward: bool
) -> set[str]:
    """Process names not reached by BFS from ``roots``."""
    seen = set(roots)
    queue = deque(roots)
    while queue:
        current = queue.popleft()
        neighbors = (
            system.successors(current) if forward else system.predecessors(current)
        )
        for neighbor in neighbors:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return {p.name for p in system.processes} - seen
