"""ERM4xx — hygiene infos.

Nothing here is wrong, exactly; each finding flags a specification smell
worth a second look before trusting analysis numbers.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.system import Process
from repro.diagnostics import Diagnostic, Severity
from repro.lint.context import LintContext
from repro.lint.registry import rule

#: The dataclass default of :class:`~repro.core.system.Process.latency`.
DEFAULT_LATENCY = Process.__dataclass_fields__["latency"].default


@rule(
    "ERM401",
    "default-latency-process",
    Severity.INFO,
    "A worker process still carries the default latency; its cycle-time "
    "contribution has not been characterized through HLS.",
)
def _erm401(context: LintContext) -> Iterable[Diagnostic]:
    for process in context.system.workers():
        if process.latency == DEFAULT_LATENCY:
            yield Diagnostic(
                rule="ERM401",
                severity=Severity.INFO,
                message=(
                    f"worker {process.name!r} uses the default latency "
                    f"{DEFAULT_LATENCY}; set the latency measured by HLS "
                    "(or attach an implementation library) before "
                    "trusting the analysis"
                ),
                location=(process.name,),
            )


@rule(
    "ERM402",
    "channel-not-in-ordering",
    Severity.INFO,
    "A declared channel appears in no get or put sequence of the "
    "supplied ordering; it would never transfer data.",
)
def _erm402(context: LintContext) -> Iterable[Diagnostic]:
    referenced: set[str] = set()
    for sequence in context.ordering.gets.values():
        referenced.update(sequence)
    for sequence in context.ordering.puts.values():
        referenced.update(sequence)
    for channel in context.system.channels:
        if channel.name not in referenced:
            yield Diagnostic(
                rule="ERM402",
                severity=Severity.INFO,
                message=(
                    f"channel {channel.name!r} "
                    f"({channel.producer} -> {channel.consumer}) is "
                    "referenced by no get or put statement of the "
                    "supplied ordering"
                ),
                location=(channel.name,),
            )
