"""JSON serialization for systems and channel orderings.

The on-disk format is a plain JSON document, versioned so future schema
changes stay loadable.  Declaration order of channels is preserved (it is
semantically meaningful: it is the default statement order).

Loaders are strict: a missing required field, an unknown field, an
unsupported ``format_version``, an unreadable file, or malformed JSON all
raise :class:`~repro.errors.ValidationError` with a message naming the
offending entry — never a raw ``KeyError`` or ``JSONDecodeError``.
Writers follow the same contract: an unwritable path raises
:class:`~repro.errors.ValidationError`, never a raw ``OSError``, so CLI
front ends report a coded error (exit 2) instead of a traceback.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.core.families import family_from_dict
from repro.core.system import (
    Channel,
    ChannelOrdering,
    Process,
    ProcessKind,
    SystemGraph,
)
from repro.errors import ValidationError

FORMAT_VERSION = 1

_PROCESS_REQUIRED = frozenset({"name"})
_PROCESS_FIELDS = frozenset({"name", "latency", "kind"})
_CHANNEL_REQUIRED = frozenset({"name", "producer", "consumer"})
_CHANNEL_FIELDS = _CHANNEL_REQUIRED | {"latency", "capacity", "initial_tokens"}


def system_to_dict(system: SystemGraph) -> dict[str, Any]:
    """Serialize a system to a JSON-compatible dictionary.

    The optional ``families`` key carries the declared replication
    structure (:mod:`repro.core.families`); it is emitted only when
    non-empty, so documents for systems without declared families are
    byte-identical to the pre-families format.
    """
    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "name": system.name,
        "processes": [
            {
                "name": p.name,
                "latency": p.latency,
                "kind": p.kind.value,
            }
            for p in system.processes
        ],
        "channels": [
            {
                "name": c.name,
                "producer": c.producer,
                "consumer": c.consumer,
                "latency": c.latency,
                "capacity": c.capacity,
                "initial_tokens": c.initial_tokens,
            }
            for c in system.channels
        ],
    }
    if system.declared_families:
        document["families"] = [
            family.to_dict() for family in system.declared_families
        ]
    return document


def _check_fields(
    entry: Any,
    required: frozenset[str],
    allowed: frozenset[str],
    what: str,
) -> Mapping[str, Any]:
    """Validate one serialized entry's field set (messages on failure only)."""
    if isinstance(entry, dict) and required <= entry.keys() <= allowed:
        return entry
    if not isinstance(entry, Mapping):
        raise ValidationError(f"{what} entry must be an object, got {entry!r}")
    label = f"{what} {entry['name']!r}" if "name" in entry else what
    missing = sorted(required - entry.keys())
    if missing:
        raise ValidationError(
            f"{label} is missing required field(s): {', '.join(missing)}"
        )
    extra = sorted(entry.keys() - allowed)
    if extra:
        raise ValidationError(
            f"{label} has unknown field(s): {', '.join(extra)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    return entry


def _check_version(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ValidationError(
            f"serialized {what} must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported {what} format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return data


def system_from_dict(data: dict[str, Any]) -> SystemGraph:
    """Rebuild a system from :func:`system_to_dict` output."""
    data = dict(_check_version(data, "system"))
    for key in ("processes", "channels"):
        if key not in data:
            raise ValidationError(f"system document is missing {key!r}")
        if not isinstance(data[key], list):
            raise ValidationError(f"system {key!r} must be a list")
    if "families" in data and not isinstance(data["families"], list):
        raise ValidationError("system 'families' must be a list")
    system = SystemGraph(data.get("name", "system"))
    for p in data["processes"]:
        p = _check_fields(p, _PROCESS_REQUIRED, _PROCESS_FIELDS, "process")
        try:
            kind = ProcessKind(p.get("kind", "worker"))
        except ValueError as error:
            raise ValidationError(
                f"process {p['name']!r}: {error}"
            ) from error
        system.add_process(
            Process(p["name"], latency=int(p.get("latency", 1)), kind=kind)
        )
    for c in data["channels"]:
        c = _check_fields(c, _CHANNEL_REQUIRED, _CHANNEL_FIELDS, "channel")
        system.add_channel(
            Channel(
                c["name"],
                c["producer"],
                c["consumer"],
                latency=int(c.get("latency", 1)),
                capacity=int(c.get("capacity", 0)),
                initial_tokens=int(c.get("initial_tokens", 0)),
            )
        )
    if data.get("families"):
        system.declare_families(
            family_from_dict(entry) for entry in data["families"]
        )
    return system


def ordering_to_dict(ordering: ChannelOrdering) -> dict[str, Any]:
    """Serialize a channel ordering to a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "gets": {name: list(order) for name, order in ordering.gets.items()},
        "puts": {name: list(order) for name, order in ordering.puts.items()},
    }


def ordering_from_dict(data: dict[str, Any]) -> ChannelOrdering:
    """Rebuild an ordering from :func:`ordering_to_dict` output."""
    data = dict(_check_version(data, "ordering"))
    for key in ("gets", "puts"):
        if key not in data:
            raise ValidationError(f"ordering document is missing {key!r}")
        if not isinstance(data[key], Mapping):
            raise ValidationError(
                f"ordering {key!r} must map process names to channel lists"
            )
    return ChannelOrdering(
        gets={name: tuple(order) for name, order in data["gets"].items()},
        puts={name: tuple(order) for name, order in data["puts"].items()},
    )


def _read_json(path: str | Path, what: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ValidationError(f"cannot read {what} file {path}: {error}") from error
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"{what} file {path} is not valid JSON: {error}"
        ) from error


def _write_text(text: str, path: str | Path, what: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as error:
        raise ValidationError(
            f"cannot write {what} file {path}: {error}"
        ) from error


def save_system(system: SystemGraph, path: str | Path) -> None:
    """Write a system to a JSON file.

    An unwritable path raises :class:`~repro.errors.ValidationError`
    (mirroring the loaders), never a raw :class:`OSError`.
    """
    _write_text(json.dumps(system_to_dict(system), indent=2), path, "system")


def load_system(path: str | Path) -> SystemGraph:
    """Read a system from a JSON file."""
    return system_from_dict(_read_json(path, "system"))


def save_ordering(ordering: ChannelOrdering, path: str | Path) -> None:
    """Write a channel ordering to a JSON file.

    An unwritable path raises :class:`~repro.errors.ValidationError`
    (mirroring the loaders), never a raw :class:`OSError`.
    """
    _write_text(
        json.dumps(ordering_to_dict(ordering), indent=2), path, "ordering"
    )


def load_ordering(path: str | Path) -> ChannelOrdering:
    """Read a channel ordering from a JSON file."""
    return ordering_from_dict(_read_json(path, "ordering"))
