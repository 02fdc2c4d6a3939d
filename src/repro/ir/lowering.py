"""Lowering: compile a ``(system, ordering)`` pair to a :class:`LoweredIR`.

:func:`lower` is the single entry point.  It validates the ordering
against the system, flattens every process's statement chain to dense
integer arrays, snapshots the channel tables, and stamps the result with
its content hash.  Results are memoized, so the four downstream
consumers (simulator, TMG builder, verifier, lint/perf caches) can each
call :func:`lower` independently and still share one compiled object.

Two renderings of the same structure are used deliberately:

* the **memo key** preserves declaration order, so a cache hit is
  guaranteed to return tables whose process/channel ids match the
  caller's system exactly (the TMG builder's transition order depends on
  declaration order, and analysis results must stay bit-identical);
* the **structural hash** sorts each section by name, so two systems
  that express the same design with different dict-insertion order hash
  identically — the property external caches and fingerprints rely on.

The memo is a small LRU implemented locally: this package sits *below*
``repro.perf`` in the layer diagram (perf fingerprints delegate to the
IR hash), so importing ``repro.perf.cache`` here would create a cycle.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir.program import (
    OP_COMPUTE,
    OP_GET,
    OP_PUT,
    LoweredIR,
    kind_code,
)

#: Unit separator, unlikely in user-facing names (same convention as the
#: perf fingerprints this hash now underpins).
_SEPARATOR = "\x1f"

#: Version tag: bump when the rendering schema changes so stale external
#: caches can never alias a new-format hash.
_RENDER_VERSION = "ir:v1"

_MEMO_CAPACITY = 256

_memo: OrderedDict[str, LoweredIR] = OrderedDict()


def clear_lowering_cache() -> None:
    """Drop every memoized :class:`LoweredIR` (test isolation hook)."""
    _memo.clear()


def lowering_cache_info() -> tuple[int, int]:
    """``(entries, capacity)`` of the lowering memo."""
    return len(_memo), _MEMO_CAPACITY


def _render_parts(
    system: SystemGraph, ordering: ChannelOrdering
) -> tuple[list[str], list[str], list[str]]:
    """The three rendered sections (processes, channels, orderings).

    Each line is self-delimiting; within a section, lines are emitted in
    declaration order (callers sort for the canonical hash).
    """
    process_lines = [
        f"p{_SEPARATOR}{p.name}{_SEPARATOR}{p.kind.value}" for p in system.processes
    ]
    channel_lines = [
        f"c{_SEPARATOR}{c.name}{_SEPARATOR}{c.producer}{_SEPARATOR}{c.consumer}"
        f"{_SEPARATOR}{c.latency}{_SEPARATOR}{c.capacity}{_SEPARATOR}{c.initial_tokens}"
        for c in system.channels
    ]
    ordering_lines = [
        f"o{_SEPARATOR}{name}"
        f"{_SEPARATOR}g={','.join(ordering.gets_of(name))}"
        f"{_SEPARATOR}p={','.join(ordering.puts_of(name))}"
        for name in system.process_names
    ]
    return process_lines, channel_lines, ordering_lines


def structural_hash_of(system: SystemGraph, ordering: ChannelOrdering) -> str:
    """The canonical content hash of a ``(system, ordering)`` pair.

    Insertion-order independent: each section is sorted by name before
    hashing, so the digest identifies the *design*, not the accident of
    construction order.  ``lower(...).structural_hash`` equals this.
    """
    processes, channels, orderings = _render_parts(system, ordering)
    canonical = "\n".join(
        [_RENDER_VERSION, system.name]
        + sorted(processes)
        + sorted(channels)
        + sorted(orderings)
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def lower(
    system: SystemGraph, ordering: ChannelOrdering | None = None
) -> LoweredIR:
    """Compile ``(system, ordering)`` to its :class:`LoweredIR`.

    Args:
        system: The system topology.
        ordering: Statement orders; defaults to declaration order.  The
            ordering is validated against the system (a non-permutation
            raises :class:`~repro.errors.ValidationError`).

    Returns:
        The memoized IR.  Table order follows the system's declaration
        order; the :attr:`~repro.ir.program.LoweredIR.structural_hash`
        does not (see module docstring).
    """
    validate = ordering is not None
    if ordering is None:
        ordering = ChannelOrdering.declaration_order(system)

    processes, channels, orderings = _render_parts(system, ordering)
    declared = "\n".join(
        [_RENDER_VERSION, system.name] + processes + channels + orderings
    )
    cached = _memo.get(declared)
    if cached is not None:
        # A hit proves validity: the rendering covers the channel tables
        # and the full get/put lists, so a byte-identical key can only be
        # produced by an ordering already validated against an identical
        # system.
        _memo.move_to_end(declared)
        return cached
    if validate:
        ordering.validate(system)

    canonical = "\n".join(
        [_RENDER_VERSION, system.name]
        + sorted(processes)
        + sorted(channels)
        + sorted(orderings)
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()

    process_names = system.process_names
    channel_names = system.channel_names
    process_index = {name: i for i, name in enumerate(process_names)}
    channel_index = {name: i for i, name in enumerate(channel_names)}

    producers: list[int] = []
    consumers: list[int] = []
    channel_latencies: list[int] = []
    capacities: list[int] = []
    initial_tokens: list[int] = []
    buffered: list[bool] = []
    effective_capacities: list[int] = []
    for c in system.channels:
        producers.append(process_index[c.producer])
        consumers.append(process_index[c.consumer])
        channel_latencies.append(c.latency)
        capacity = c.capacity
        initial = c.initial_tokens
        capacities.append(capacity)
        initial_tokens.append(initial)
        buffered.append(capacity > 0 or initial > 0)
        effective_capacities.append(capacity if capacity > initial else initial)

    op_kinds: list[tuple[int, ...]] = []
    op_args: list[tuple[int, ...]] = []
    comm_indices: list[tuple[int, ...]] = []
    first_marked: list[int] = []
    gets_map = ordering.gets
    puts_map = ordering.puts
    for pid, name in enumerate(process_names):
        gets = gets_map.get(name, ())
        puts = puts_map.get(name, ())
        kinds = (
            (OP_GET,) * len(gets) + (OP_COMPUTE,) + (OP_PUT,) * len(puts)
        )
        args = tuple(
            [channel_index[c] for c in gets]
            + [pid]
            + [channel_index[c] for c in puts]
        )
        op_kinds.append(kinds)
        op_args.append(args)
        n_gets = len(gets)
        comm_indices.append(
            tuple(range(n_gets)) + tuple(range(n_gets + 1, len(kinds)))
        )
        # The paper's marking rule on a canonical get*-compute-put* chain:
        # first get (index 0); a process with no gets (a testbench source)
        # starts at its first put (index 1, right after the compute); a
        # degenerate chain starts at the compute.  Read by
        # ``repro.model.build.marked_places``.
        first_marked.append(0 if n_gets else (1 if puts else 0))

    ir = LoweredIR(
        system_name=system.name,
        processes=process_names,
        process_kinds=tuple(kind_code(p.kind) for p in system.processes),
        channels=channel_names,
        producers=tuple(producers),
        consumers=tuple(consumers),
        channel_latencies=tuple(channel_latencies),
        capacities=tuple(capacities),
        initial_tokens=tuple(initial_tokens),
        buffered=tuple(buffered),
        effective_capacities=tuple(effective_capacities),
        op_kinds=tuple(op_kinds),
        op_args=tuple(op_args),
        comm_indices=tuple(comm_indices),
        first_marked=tuple(first_marked),
        structural_hash=digest,
        process_index=process_index,
        channel_index=channel_index,
    )

    _memo[declared] = ir
    if len(_memo) > _MEMO_CAPACITY:
        _memo.popitem(last=False)
    return ir
