"""Rendering lint results: human text, machine JSON, and SARIF 2.1.0.

The SARIF document follows the OASIS 2.1.0 schema shape: one run, tool
metadata with the full rule catalog (so viewers can show rule help for
codes with zero findings too), and one result per diagnostic with the
design elements as SARIF *logical locations* (a specification has no
files or line numbers; processes and channels are the addressable
units).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.diagnostics import Severity
from repro.lint.registry import catalog, category

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Severity -> SARIF result level.
_SARIF_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def render_text(result: "LintResult", verbose: bool = False) -> str:
    """One line per finding plus a summary tail, ruff/clang-tidy style."""
    lines = [d.format() for d in result.diagnostics]
    counts = result.counts()
    summary = ", ".join(
        f"{counts[s]} {s.value}{'s' if counts[s] != 1 else ''}"
        for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)
        if counts[s]
    )
    fixable = sum(1 for d in result.diagnostics if d.fixable)
    if not lines:
        return f"{result.subject}: clean (no findings)\n"
    tail = f"{result.subject}: {summary}"
    if fixable:
        tail += f" ({fixable} fixable with --fix)"
    if verbose:
        for diagnostic in result.diagnostics:
            if diagnostic.fix is not None:
                lines.append(f"  fix[{diagnostic.rule}]: "
                             f"{diagnostic.fix.description}")
    return "\n".join(lines + [tail]) + "\n"


def render_json(result: "LintResult") -> str:
    """A stable JSON document for toolchains that post-process findings."""
    counts = result.counts()
    payload: dict[str, Any] = {
        "subject": result.subject,
        "summary": {
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARNING],
            "infos": counts[Severity.INFO],
            "fixable": sum(1 for d in result.diagnostics if d.fixable),
        },
        "diagnostics": [
            {
                "rule": d.rule,
                "severity": d.severity.value,
                "message": d.message,
                "location": list(d.location),
                "fixable": d.fixable,
                **(
                    {"fix": {
                        "description": d.fix.description,
                        "gets": {k: list(v) for k, v in d.fix.gets.items()},
                        "puts": {k: list(v) for k, v in d.fix.puts.items()},
                    }}
                    if d.fix is not None
                    else {}
                ),
            }
            for d in result.diagnostics
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def sarif_dict(result: "LintResult") -> dict[str, Any]:
    """The SARIF 2.1.0 log of a lint result, as a plain dictionary."""
    from repro import __version__

    rules = catalog()
    rule_index = {rule.code: i for i, rule in enumerate(rules)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "ermes-lint",
                        "version": __version__,
                        "informationUri": (
                            "https://github.com/ermes-repro/repro"
                        ),
                        "rules": [
                            {
                                "id": rule.code,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVEL[rule.severity],
                                },
                                "properties": {
                                    "category": category(rule.code),
                                },
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": d.rule,
                        **(
                            {"ruleIndex": rule_index[d.rule]}
                            if d.rule in rule_index
                            else {}
                        ),
                        "level": _SARIF_LEVEL[d.severity],
                        "message": {"text": d.message},
                        "locations": [
                            {
                                "logicalLocations": [
                                    {
                                        "name": element,
                                        "fullyQualifiedName": (
                                            f"{result.subject}::{element}"
                                        ),
                                        "kind": (
                                            "process"
                                            if result.system is not None
                                            and result.system.has_process(
                                                element
                                            )
                                            else "channel"
                                        ),
                                    }
                                    for element in d.location
                                ]
                            }
                        ] if d.location else [],
                        "properties": {"fixable": d.fixable},
                    }
                    for d in result.diagnostics
                ],
            }
        ],
    }


def render_sarif(result: "LintResult") -> str:
    """:func:`sarif_dict` serialized with a trailing newline."""
    return json.dumps(sarif_dict(result), indent=2) + "\n"
