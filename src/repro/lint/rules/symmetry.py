"""ERM7xx — structural symmetry findings.

The compositional flow replicates accelerator stages behind identical
latency-insensitive interfaces, so real designs carry large automorphism
groups.  These rules spend the canonical labeling of :mod:`repro.sym`:

* ``ERM701`` reports each replicated process family (a strict-symmetry
  orbit of two or more interchangeable processes) with its orbit size —
  a map of where quotient verification and orbit-deduplicated DSE will
  pay off;
* ``ERM702`` flags a statement ordering that is a non-canonical member
  of a family of symmetry-equivalent orderings: some automorphism of
  the topology (one that also preserves per-process latencies) carries
  it onto a lexicographically smaller ordering with bit-identical cycle
  time and deadlock behavior.  The fix-it rewrites the ordering to that
  canonical representative, so symmetric design variants converge on
  one spelling and share every downstream cache entry;
* ``ERM703`` flags an asymmetric channel attribute inside an otherwise
  replicated family: channels that pure endpoint topology makes
  interchangeable but whose declared capacity, initial tokens, or
  latency differ — usually a copy-paste slip when one lane of a
  replicated fabric was edited.

ERM701 runs at every scale (the labeling budget is adaptive); the
relaxed-policy rules enumerate group elements, so they gate on
:func:`~repro.verify.checker.is_small_system` like the ERM5xx rules and
stay silent — never guess — when the group is too large to enumerate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.diagnostics import Diagnostic, OrderingFix, Severity
from repro.lint.context import LintContext
from repro.lint.registry import rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir import LoweredIR
    from repro.sym import PairPerm

#: Largest automorphism group ERM702/ERM703 will enumerate.  Beyond this
#: the rules stay silent rather than sample (no silent *partial* answers:
#: a capped enumeration could miss the canonical representative and
#: report a non-minimal "fix").
CLOSURE_LIMIT = 512


def _ordering_table(
    ir: "LoweredIR", context: LintContext
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The current ordering as per-process channel-index sequences.

    Index space makes images under a :class:`PairPerm` a pure table
    lookup; the tuple-of-tuples shape compares lexicographically.
    """
    gets = []
    puts = []
    for name in ir.processes:
        gets.append(tuple(ir.cid(c) for c in context.ordering.gets[name]))
        puts.append(tuple(ir.cid(c) for c in context.ordering.puts[name]))
    return tuple(zip(gets, puts))


def _transport(
    table: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    element: "PairPerm",
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The ordering carried along an automorphism.

    Process ``p``'s statement sequence moves to process ``gp[p]`` with
    every channel renamed through ``gc`` — the transported ordering of
    the *same* system, with an isomorphic (hence performance- and
    deadlock-identical) timed marked graph.
    """
    gp, gc = element
    moved: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        ((), ())
    ] * len(table)
    for p, (gets, puts) in enumerate(table):
        moved[gp[p]] = (
            tuple(gc[c] for c in gets),
            tuple(gc[c] for c in puts),
        )
    return tuple(moved)


@rule(
    "ERM701",
    "replicated-stage-family",
    Severity.INFO,
    "Processes interchangeable under a verified automorphism of the "
    "lowered program form a replicated family; symmetry-aware "
    "verification and exploration collapse each family to one "
    "representative.",
)
def _erm701(context: LintContext) -> Iterable[Diagnostic]:
    declared = context.declared_families
    if declared:
        # Fast path: the construction layer declared its replication
        # and the claims verified against the lowered program — report
        # the declared families directly, no canonical-labeling search.
        for verified in declared:
            qualifier = (
                "verified automorphisms of the lowered program"
                if verified.exact
                else "verified up to statement reordering — a shared "
                "endpoint serializes the lanes"
            )
            for orbit_names in verified.family.process_orbits:
                if len(set(orbit_names)) < 2:
                    continue
                members = tuple(sorted(orbit_names))
                yield Diagnostic(
                    rule="ERM701",
                    severity=Severity.INFO,
                    message=(
                        f"processes {', '.join(repr(m) for m in members)} "
                        f"form a replicated family of {len(members)} "
                        "interchangeable stages, declared by the "
                        f"composition layer as {verified.family.name!r} "
                        f"({verified.family.kind}; {qualifier}); "
                        "quotient verification and orbit-deduped "
                        "exploration treat them as one."
                    ),
                    location=members,
                )
        return
    analysis = context.symmetry
    if analysis is None or analysis.trivial or not analysis.complete:
        return
    ir = context.ir
    assert ir is not None  # symmetry implies ir
    for orbit in analysis.replicated_process_orbits:
        members = tuple(sorted(ir.processes[pid] for pid in orbit))
        yield Diagnostic(
            rule="ERM701",
            severity=Severity.INFO,
            message=(
                f"processes {', '.join(repr(m) for m in members)} form "
                f"a replicated family of {len(members)} interchangeable "
                "stages (verified automorphisms of the lowered "
                "program); quotient verification and orbit-deduped "
                "exploration treat them as one."
            ),
            location=members,
        )


@rule(
    "ERM702",
    "symmetric-ordering-redundancy",
    Severity.INFO,
    "The statement ordering is a non-canonical member of a family of "
    "symmetry-equivalent orderings with identical cycle time and "
    "deadlock behavior; rewriting it to the canonical representative "
    "lets equivalent variants share every cached analysis.",
)
def _erm702(context: LintContext) -> Iterable[Diagnostic]:
    from repro.sym import closure

    analysis = context.symmetry_order_relaxed
    if analysis is None or analysis.trivial or not analysis.complete:
        return
    ir = context.ir
    assert ir is not None  # symmetry_order_relaxed implies ir
    elements = closure(
        analysis.generators,
        ir.n_processes,
        ir.n_channels,
        limit=CLOSURE_LIMIT,
    )
    if elements is None:
        return  # group too large to enumerate: stay silent
    system = context.system
    latency = [
        system.process(name).latency for name in ir.processes
    ]
    table = _ordering_table(ir, context)
    best = table
    best_element: "PairPerm | None" = None
    for element in elements:
        gp = element[0]
        if any(latency[p] != latency[gp[p]] for p in range(len(gp))):
            continue  # transport would change a stage's latency
        image = _transport(table, element)
        if image < best:
            best = image
            best_element = element
    if best_element is None:
        return  # already the canonical representative
    orbit_count = sum(
        1
        for element in elements
        if not any(
            latency[p] != latency[element[0][p]]
            for p in range(len(element[0]))
        )
    )
    fix_gets: dict[str, tuple[str, ...]] = {}
    fix_puts: dict[str, tuple[str, ...]] = {}
    for p, (gets, puts) in enumerate(best):
        name = ir.processes[p]
        new_gets = tuple(ir.channels[c] for c in gets)
        new_puts = tuple(ir.channels[c] for c in puts)
        if new_gets != context.ordering.gets[name]:
            fix_gets[name] = new_gets
        if new_puts != context.ordering.puts[name]:
            fix_puts[name] = new_puts
    touched = tuple(sorted(set(fix_gets) | set(fix_puts)))
    yield Diagnostic(
        rule="ERM702",
        severity=Severity.INFO,
        message=(
            "this statement ordering is one of a family of up to "
            f"{orbit_count} symmetry-equivalent orderings (identical "
            "cycle time and deadlock behavior) and is not the "
            "canonical representative; reordering "
            f"{', '.join(repr(t) for t in touched)} makes equivalent "
            "variants share one cache identity."
        ),
        location=touched,
        fix=OrderingFix(
            description=(
                "rewrite to the lexicographically minimal "
                "symmetry-equivalent ordering"
            ),
            gets=fix_gets,
            puts=fix_puts,
        ),
    )


@rule(
    "ERM703",
    "asymmetric-capacity-in-symmetric-family",
    Severity.WARNING,
    "Channels that pure endpoint topology makes interchangeable "
    "disagree on capacity, initial tokens, or latency — usually one "
    "lane of a replicated fabric was edited while its siblings were "
    "not.",
)
def _erm703(context: LintContext) -> Iterable[Diagnostic]:
    analysis = context.symmetry_topology_relaxed
    if analysis is None or not analysis.complete:
        return
    ir = context.ir
    assert ir is not None
    for orbit in analysis.replicated_channel_orbits:
        groups: dict[tuple[int, int, int], list[str]] = {}
        for c in orbit:
            name = ir.channels[c]
            attrs = (
                ir.capacities[c],
                ir.initial_tokens[c],
                ir.channel_latencies[c],
            )
            groups.setdefault(attrs, []).append(name)
        if len(groups) < 2:
            continue
        # The family's dominant attribute tuple is the majority; the
        # minority members are the likely copy-paste slips.
        ranked = sorted(
            groups.items(), key=lambda kv: (-len(kv[1]), kv[0])
        )
        majority_attrs, majority = ranked[0]
        outliers = tuple(
            sorted(
                name
                for attrs, names in ranked[1:]
                for name in names
            )
        )
        yield Diagnostic(
            rule="ERM703",
            severity=Severity.WARNING,
            message=(
                f"channel{'s' if len(outliers) > 1 else ''} "
                f"{', '.join(repr(o) for o in outliers)} "
                f"{'are' if len(outliers) > 1 else 'is'} "
                "topologically interchangeable with "
                f"{', '.join(repr(m) for m in sorted(majority))} "
                "(capacity/initial_tokens/latency "
                f"{majority_attrs}) but declare different channel "
                "attributes; if the asymmetry is unintentional, one "
                "lane of the replicated family has drifted."
            ),
            location=outliers + tuple(sorted(majority)),
        )
