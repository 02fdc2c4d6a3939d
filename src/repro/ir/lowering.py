"""Lowering: compile a ``(system, ordering)`` pair to a :class:`LoweredIR`.

:func:`lower` is the single entry point.  It validates the ordering
against the system, flattens every process's statement chain to dense
integer arrays and snapshots the channel tables.  Results are memoized,
so the four downstream consumers (simulator, TMG builder, verifier,
lint/perf caches) can each call :func:`lower` independently and still
share one compiled object.

The memo key is the declared content as nested tuples, in declaration
order, so a cache hit is guaranteed to return tables whose
process/channel ids match the caller's system exactly (the TMG builder's
transition order depends on declaration order, and analysis results must
stay bit-identical); building it renders no text.  The returned
:class:`LoweredIR` compares equal exactly when that content does, so it
is itself the key of every memo of a fact derived from the pair.  Its
:attr:`~repro.ir.program.LoweredIR.structural_hash` (computed on first
use) renders each section sorted by name instead: a content address that
two declaration orders of one design share.

The memo is a :class:`~repro.cache.LruCache` (the leaf module every
layer shares).
"""

from __future__ import annotations

from operator import attrgetter
from typing import cast

from repro.cache import MISS, memo
from repro.core.system import ChannelOrdering, SystemGraph
from repro.ir.program import (
    OP_COMPUTE,
    OP_GET,
    OP_PUT,
    LoweredIR,
    kind_code,
)

_KIND = attrgetter("kind")
#: The declared content of a channel, by column.
_CHANNEL_FIELDS = (
    "name", "producer", "consumer", "latency", "capacity", "initial_tokens"
)
_CHANNEL_COLUMNS = tuple(map(attrgetter, _CHANNEL_FIELDS))

_memo = memo("lower", maxsize=256)


def clear_lowering_cache() -> None:
    """Drop every memoized :class:`LoweredIR` (test isolation hook)."""
    _memo.clear()


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

    process_names = system.process_names
    process_kinds = tuple(map(kind_code, map(_KIND, system.processes)))
    channels = system.channels
    # The channel table by column: six tuples, not one tuple per channel
    # for the cyclic GC to scan.
    columns = tuple(tuple(map(column, channels)) for column in _CHANNEL_COLUMNS)
    gets_map, puts_map = ordering.gets, ordering.puts
    get_orders = tuple(tuple(gets_map.get(name, ())) for name in process_names)
    put_orders = tuple(tuple(puts_map.get(name, ())) for name in process_names)
    key = (system.name, process_names, process_kinds, columns, get_orders,
           put_orders)
    cached = _memo.get(key)
    if cached is not MISS:
        # A hit proves validity: the key covers the channel tables and the
        # full get/put lists, so an identical key can only come from an
        # ordering already validated against an identical system.
        return cast(LoweredIR, cached)

    process_index = dict(zip(process_names, range(len(process_names))))
    (channel_names, sources, targets, channel_latencies, capacities,
     initial_tokens) = columns
    channel_index = dict(zip(channel_names, range(len(channel_names))))
    producers = tuple(map(process_index.__getitem__, sources))
    consumers = tuple(map(process_index.__getitem__, targets))

    # Every get (put) id, process by process: the ordering is valid iff
    # each channel occurs exactly once among them, under its consumer
    # (producer).  On failure the ordering's own check names the culprit.
    try:
        get_ids = [channel_index[c] for gets in get_orders for c in gets]
        put_ids = [channel_index[c] for puts in put_orders for c in puts]
    except KeyError:
        get_ids = put_ids = []
    if validate:
        every = list(range(len(channel_names)))
        get_owner = [pid for pid, gets in enumerate(get_orders) for _ in gets]
        put_owner = [pid for pid, puts in enumerate(put_orders) for _ in puts]
        if (
            sorted(get_ids) != every or sorted(put_ids) != every
            or list(map(consumers.__getitem__, get_ids)) != get_owner
            or list(map(producers.__getitem__, put_ids)) != put_owner
        ):
            ordering.validate(system)

    op_kinds: list[tuple[int, ...]] = []
    op_args: list[tuple[int, ...]] = []
    comm_indices: list[tuple[int, ...]] = []
    first_marked: list[int] = []
    shapes: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], int]] = {}
    g = p = 0
    for pid, (gets, puts) in enumerate(zip(get_orders, put_orders)):
        n_gets, n_puts = len(gets), len(puts)
        shape = shapes.get((n_gets, n_puts))
        if shape is None:
            kinds = (OP_GET,) * n_gets + (OP_COMPUTE,) + (OP_PUT,) * n_puts
            # The paper's marking rule on a canonical get*-compute-put*
            # chain: first get (index 0); a process with no gets (a
            # testbench source) starts at its first put (index 1, right
            # after the compute); a degenerate chain starts at the
            # compute.  Read by ``repro.model.build.marked_places``.
            shape = shapes[n_gets, n_puts] = (
                kinds,
                tuple(range(n_gets)) + tuple(range(n_gets + 1, len(kinds))),
                0 if n_gets else (1 if n_puts else 0),
            )
        op_kinds.append(shape[0])
        comm_indices.append(shape[1])
        first_marked.append(shape[2])
        op_args.append(tuple(
            get_ids[g:g + n_gets] + [pid] + put_ids[p:p + n_puts]
        ))
        g += n_gets
        p += n_puts

    # Capacities and initial tokens are >= 0, so a channel is buffered
    # exactly when the larger of the two is positive.
    effective_capacities = tuple(
        max(cap, tok) for cap, tok in zip(capacities, initial_tokens)
    )
    ir = LoweredIR(
        system_name=system.name,
        processes=process_names,
        process_kinds=process_kinds,
        channels=channel_names,
        producers=producers,
        consumers=consumers,
        channel_latencies=channel_latencies,
        capacities=capacities,
        initial_tokens=initial_tokens,
        buffered=tuple(map(bool, effective_capacities)),
        effective_capacities=effective_capacities,
        op_kinds=tuple(op_kinds),
        op_args=tuple(op_args),
        comm_indices=tuple(comm_indices),
        first_marked=tuple(first_marked),
        process_index=process_index,
        channel_index=channel_index,
    )

    _memo.put(key, ir)
    return ir
