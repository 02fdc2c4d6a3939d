"""Structural validation of system graphs.

A system must satisfy a handful of invariants before analysis or synthesis
is meaningful.  The collect-all core, :func:`structural_diagnostics`,
reports *every* violation as a :class:`~repro.diagnostics.Diagnostic` with
a stable ``ERM1xx`` rule code — this is what the linter
(:mod:`repro.lint`) and the pre-flight checks consume.
:func:`validate_system` is the historical fail-fast wrapper: it raises
:class:`~repro.errors.ValidationError` with the first error-severity
finding's message, so existing callers keep their exact behaviour.

Rule codes:

* ``ERM101`` — no worker processes;
* ``ERM102`` — a source has input channels;
* ``ERM103`` — a sink has output channels;
* ``ERM104`` — a worker has no input channels;
* ``ERM105`` — a worker has no output channels;
* ``ERM106`` — a process is not reachable from any source;
* ``ERM107`` — a process cannot reach any sink;
* ``ERM108`` — a channel ordering is not a permutation of a process's
  declared ports (ordering ↔ topology mismatch).
"""

from __future__ import annotations

from repro.core.system import ChannelOrdering, ProcessKind, SystemGraph
from repro.diagnostics import Diagnostic, Severity
from repro.errors import ValidationError


def validate_system(system: SystemGraph) -> None:
    """Check all structural invariants of ``system``; raise on the first.

    Invariants:

    * at least one worker process;
    * sources have no input channels, sinks have no output channels;
    * every worker process has at least one input and one output channel
      (a worker with no inputs never synchronizes with the environment and
      a worker with no outputs is dead code — both are almost certainly
      specification mistakes);
    * every process is reachable from some source and co-reachable from
      some sink through channels (no disconnected islands), when the system
      has sources/sinks at all.

    This is a thin wrapper over :func:`structural_diagnostics` that raises
    :class:`~repro.errors.ValidationError` with the first error-severity
    finding.  Use the collect-all core directly to see every violation at
    once.
    """
    for diagnostic in structural_diagnostics(system):
        if diagnostic.severity is Severity.ERROR:
            raise ValidationError(diagnostic.message)


def structural_diagnostics(
    system: SystemGraph, ordering: ChannelOrdering | None = None
) -> list[Diagnostic]:
    """Every structural violation of ``system`` (and optionally of an
    ordering against it), as ``ERM1xx`` diagnostics.

    Unlike :func:`validate_system` this never raises: it returns the full
    list so a designer can fix all problems in one pass.  Findings are
    emitted in checking order (worker census, port directions, reachability,
    ordering ↔ topology); the linter re-sorts by severity.
    """
    diagnostics: list[Diagnostic] = []
    processes = system.processes

    if not any(p.kind is ProcessKind.WORKER for p in processes):
        diagnostics.append(
            Diagnostic(
                rule="ERM101",
                severity=Severity.ERROR,
                message=f"system {system.name!r} has no worker processes",
                location=(system.name,),
            )
        )

    # One pass over the channel table gives every port count and both
    # reachability adjacencies; channel endpoints always name processes.
    successors: dict[str, list[str]] = {p.name: [] for p in processes}
    predecessors: dict[str, list[str]] = {p.name: [] for p in processes}
    for channel in system.channels:
        successors[channel.producer].append(channel.consumer)
        predecessors[channel.consumer].append(channel.producer)

    for process in processes:
        n_in = len(predecessors[process.name])
        n_out = len(successors[process.name])
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

    sources = [p.name for p in processes if p.kind is ProcessKind.SOURCE]
    sinks = [p.name for p in processes if p.kind is ProcessKind.SINK]
    if sources:
        unreachable = _unreachable_from(successors, sources)
        if unreachable:
            diagnostics.append(
                Diagnostic(
                    rule="ERM106",
                    severity=Severity.ERROR,
                    message=(
                        "processes not reachable from any source: "
                        f"{unreachable}"
                    ),
                    location=tuple(unreachable),
                )
            )
    if sinks:
        cannot_reach = _unreachable_from(predecessors, sinks)
        if cannot_reach:
            diagnostics.append(
                Diagnostic(
                    rule="ERM107",
                    severity=Severity.ERROR,
                    message=(
                        "processes that cannot reach any sink: "
                        f"{cannot_reach}"
                    ),
                    location=tuple(cannot_reach),
                )
            )

    if ordering is not None:
        diagnostics.extend(ordering_diagnostics(system, ordering))
    return diagnostics


def ordering_diagnostics(
    system: SystemGraph, ordering: ChannelOrdering
) -> list[Diagnostic]:
    """``ERM108`` findings: the ordering ↔ topology mismatches.

    The collect-all counterpart of
    :meth:`~repro.core.system.ChannelOrdering.validate`: one diagnostic per
    process whose gets/puts are not a permutation of its declared input/
    output channels, plus one per ordering entry that names a process the
    system does not have.
    """
    diagnostics: list[Diagnostic] = []
    for name in system.process_names:
        declared_in = sorted(system.input_channels(name))
        declared_out = sorted(system.output_channels(name))
        got_in = sorted(ordering.gets.get(name, ()))
        got_out = sorted(ordering.puts.get(name, ()))
        if got_in != declared_in:
            diagnostics.append(
                Diagnostic(
                    rule="ERM108",
                    severity=Severity.ERROR,
                    message=(
                        f"ordering for {name!r}: gets {got_in} is not a "
                        f"permutation of input channels {declared_in}"
                    ),
                    location=(name,),
                )
            )
        if got_out != declared_out:
            diagnostics.append(
                Diagnostic(
                    rule="ERM108",
                    severity=Severity.ERROR,
                    message=(
                        f"ordering for {name!r}: puts {got_out} is not a "
                        f"permutation of output channels {declared_out}"
                    ),
                    location=(name,),
                )
            )
    known = set(system.process_names)
    for name in sorted((set(ordering.gets) | set(ordering.puts)) - known):
        diagnostics.append(
            Diagnostic(
                rule="ERM108",
                severity=Severity.ERROR,
                message=(
                    f"ordering references unknown process {name!r}"
                ),
                location=(name,),
            )
        )
    return diagnostics


def _unreachable_from(
    adjacency: dict[str, list[str]], roots: list[str]
) -> list[str]:
    """Sorted names of the ``adjacency`` keys not reached from ``roots``.

    Pass the successor lists for reachability, the predecessor lists for
    co-reachability.
    """
    seen = set(roots)
    stack = list(roots)
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return sorted(adjacency.keys() - seen)
