"""Cross-design translation of performance artifacts via canonical frames.

Two lowered IRs with equal ``canonical_hash`` are isomorphic: some
automorphism-compatible renaming carries one onto the other.  Their timed
marked graphs are therefore isomorphic too, and — when the per-process
latencies also agree *in canonical positions* — an analysis computed for
one is valid for the other, except that every process/channel name in the
result is spelled in the writer's vocabulary.

A :class:`CanonicalEnvelope` persists a
:class:`~repro.model.performance.SystemPerformance` together with the
writer's name tables in canonical order.  A reader with its own
:class:`~repro.sym.canonical.SymmetryAnalysis` aligns the two tables
position by position (canonical position ``i`` names the same abstract
node in both designs), obtaining a writer→reader renaming that is exact
by construction.  The TMG naming schemes of :mod:`repro.model.build`
(``proc:``/``ch:`` transitions, ``/comp``, ``/get:``, ``/put:``,
``/data``, ``/credit`` places) are then rewritten token by token; any
token that fails to parse turns the whole translation into a cache miss
— reuse is never allowed to produce a half-renamed report.

Only successful analyses travel this way.  Deadlock diagnoses embed
concrete witness text and stay keyed to their own design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

from repro.model.build import (
    CHANNEL_PREFIX,
    COMPUTE_SUFFIX,
    CREDIT_SUFFIX,
    DATA_SUFFIX,
    GET_SUFFIX,
    PROCESS_PREFIX,
    PUT_SUFFIX,
    statement_place,
)
from repro.model.performance import SystemPerformance
from repro.perf.fingerprint import analysis_fingerprint
from repro.sym.canonical import SymmetryAnalysis


@dataclass(frozen=True)
class CanonicalEnvelope:
    """A performance result plus the writer's canonical name frame."""

    performance: SystemPerformance
    process_names: tuple[str, ...]  # writer names, canonical order
    channel_names: tuple[str, ...]


def canonical_result_key(
    analysis: SymmetryAnalysis,
    latencies: Mapping[str, int],
    exact: bool,
) -> str:
    """The orbit-invariant analogue of the analysis fingerprint.

    Latencies enter by canonical *position*, not by name, so two
    isomorphic designs whose corresponding processes share latencies
    produce the same key whatever they called those processes.
    """
    positional = {
        f"#{i}": latencies[name]
        for i, name in enumerate(analysis.canonical_process_names)
    }
    return analysis_fingerprint(analysis.canonical_hash, positional, exact)


def make_envelope(
    performance: SystemPerformance, analysis: SymmetryAnalysis
) -> CanonicalEnvelope:
    """Wrap a freshly computed result in the writer's canonical frame."""
    return CanonicalEnvelope(
        performance=performance,
        process_names=analysis.canonical_process_names,
        channel_names=analysis.canonical_channel_names,
    )


def remap_performance(
    envelope: CanonicalEnvelope, analysis: SymmetryAnalysis
) -> SystemPerformance | None:
    """Translate an envelope into the reader's name frame.

    Returns ``None`` — caller treats it as a cache miss — when the
    frames cannot be aligned or any report token fails to parse.
    """
    if not isinstance(envelope, CanonicalEnvelope):  # defensive: stale store
        return None
    if len(envelope.process_names) != len(analysis.canonical_process_names):
        return None
    if len(envelope.channel_names) != len(analysis.canonical_channel_names):
        return None
    pmap = dict(zip(envelope.process_names, analysis.canonical_process_names))
    cmap = dict(zip(envelope.channel_names, analysis.canonical_channel_names))
    performance = envelope.performance

    def proc(name: str) -> str | None:
        return pmap.get(name)

    def chan(name: str) -> str | None:
        return cmap.get(name)

    def transition(token: str) -> str | None:
        if token.startswith(PROCESS_PREFIX):
            target = proc(token[len(PROCESS_PREFIX):])
            return None if target is None else PROCESS_PREFIX + target
        if token.startswith(CHANNEL_PREFIX):
            body = token[len(CHANNEL_PREFIX):]
            for suffix in (PUT_SUFFIX, GET_SUFFIX):
                if body.endswith(suffix):
                    target = chan(body[: -len(suffix)])
                    return (
                        None
                        if target is None
                        else CHANNEL_PREFIX + target + suffix
                    )
            target = chan(body)
            return None if target is None else CHANNEL_PREFIX + target
        return None

    def place(token: str) -> str | None:
        for suffix in (DATA_SUFFIX, CREDIT_SUFFIX):
            if token.endswith(suffix):
                target = chan(token[: -len(suffix)])
                return None if target is None else target + suffix
        if token.endswith(COMPUTE_SUFFIX):
            target = proc(token[: -len(COMPUTE_SUFFIX)])
            return None if target is None else target + COMPUTE_SUFFIX
        head, sep, tail = token.rpartition("/")
        if not sep:
            return None
        kind, sep2, channel = tail.partition(":")
        if not sep2 or kind not in ("get", "put"):
            return None
        new_process = proc(head)
        new_channel = chan(channel)
        if new_process is None or new_channel is None:
            return None
        return statement_place(new_process, kind, new_channel)

    def remap_all(
        tokens: tuple[str, ...], fn: Callable[[str], str | None]
    ) -> tuple[str, ...] | None:
        out: list[str] = []
        for token in tokens:
            mapped = fn(token)
            if mapped is None:
                return None
            out.append(mapped)
        return tuple(out)

    critical_processes = remap_all(
        performance.critical_processes, lambda t: proc(t)
    )
    critical_channels = remap_all(
        performance.critical_channels, lambda t: chan(t)
    )
    critical_cycle = remap_all(performance.report.critical_cycle, transition)
    critical_places = remap_all(performance.report.critical_places, place)
    if None in (
        critical_processes,
        critical_channels,
        critical_cycle,
        critical_places,
    ):
        return None
    assert critical_processes is not None
    assert critical_channels is not None
    assert critical_cycle is not None
    assert critical_places is not None
    report = replace(
        performance.report,
        critical_cycle=critical_cycle,
        critical_places=critical_places,
    )
    return replace(
        performance,
        critical_processes=critical_processes,
        critical_channels=critical_channels,
        report=report,
    )


__all__ = [
    "CanonicalEnvelope",
    "canonical_result_key",
    "make_envelope",
    "remap_performance",
]
