"""The lowered intermediate representation (IR) of a configured system.

A ``(SystemGraph, ChannelOrdering)`` pair fully determines the operational
semantics every analysis in this repository interprets: which process
executes which blocking ``get``/``put`` statements in which order, over
channels with which transfer latency, capacity, and pre-loaded tokens.
Before this module existed, each consumer re-derived that semantics from
the object model on its own — the simulator walked
``ordering.statements_of(...)`` with string comparisons and name-keyed
dict lookups, the TMG builder re-flattened the same chains into places,
the exhaustive verifier re-projected them once more, and the performance
cache hashed yet another ad-hoc rendering.

:class:`LoweredIR` is the single compiled artifact they now share: every
process's communication program flattened to **dense integer arrays**
(statement opcode + channel id), plus integer-indexed channel tables
(endpoints, latency, capacity, initial tokens).  It is

* **immutable** — a frozen dataclass of tuples; safe to share between the
  simulator, the TMG builder, the verifier, and any cache;
* **content-addressed** — :attr:`LoweredIR.structural_hash` is a SHA-256
  digest of a canonical (name-sorted) rendering, so two systems that
  differ only in dict-insertion order hash identically, and the hash is
  byte-stable across processes and runs;
* **latency-free** — process compute latencies are deliberately *not*
  part of the IR (channel latencies are: they are structural transfer
  costs).  The ERMES explorer re-analyzes the same structure under many
  latency selections; keeping latencies out lets one IR (and everything
  keyed on its hash) serve them all.  Consumers combine the IR with an
  effective-latency table at execution time.

Opcodes are deliberately tiny: :data:`OP_GET`, :data:`OP_COMPUTE`,
:data:`OP_PUT`.  For ``get``/``put`` the argument is the channel id; for
``compute`` it is the process id (so an op row is self-describing).

See ``docs/ARCHITECTURE.md`` for the layer diagram and the full schema.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.core.system import ProcessKind

#: Statement opcodes of the flattened per-process programs.
OP_GET = 0
OP_COMPUTE = 1
OP_PUT = 2

#: Human-readable mnemonic per opcode (``kind`` vocabulary shared with
#: :meth:`repro.core.system.ChannelOrdering.statements_of`).
OP_NAMES: tuple[str, str, str] = ("get", "compute", "put")

#: Process-kind codes (index into :data:`KIND_ORDER`).
KIND_WORKER = 0
KIND_SOURCE = 1
KIND_SINK = 2

KIND_ORDER: tuple[ProcessKind, ProcessKind, ProcessKind] = (
    ProcessKind.WORKER,
    ProcessKind.SOURCE,
    ProcessKind.SINK,
)


#: Unit separator, unlikely in user-facing names (same convention as the
#: perf fingerprints this hash now underpins).
RENDER_SEPARATOR = "\x1f"

#: Version tag: bump when the rendering schema changes so stale external
#: caches can never alias a new-format hash.
RENDER_VERSION = "ir:v1"


def structural_digest(
    system_name: str,
    processes: Iterable[tuple[str, str]],
    channels: Iterable[tuple[str, str, str, int, int, int]],
    orderings: Iterable[tuple[str, Iterable[str], Iterable[str]]],
) -> str:
    """SHA-256 of the canonical rendering: one line per process (name,
    kind value), channel and statement order, each section sorted by name,
    so the digest names the design rather than its declaration order."""
    sep = RENDER_SEPARATOR
    lines = [RENDER_VERSION, system_name]
    lines += sorted(f"p{sep}{name}{sep}{kind}" for name, kind in processes)
    lines += sorted(
        f"c{sep}{name}{sep}{src}{sep}{dst}{sep}{latency}{sep}{capacity}{sep}{tokens}"
        for name, src, dst, latency, capacity, tokens in channels
    )
    lines += sorted(
        f"o{sep}{name}{sep}g={','.join(gets)}{sep}p={','.join(puts)}"
        for name, gets, puts in orderings
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_KIND_VALUES = tuple(kind.value for kind in KIND_ORDER)


def kind_code(kind: ProcessKind) -> int:
    """The integer code of a :class:`~repro.core.system.ProcessKind`."""
    return KIND_ORDER.index(kind)  # identity compares: no Enum hashing


@dataclass(frozen=True)
class LoweredIR:
    """One compiled ``(system, ordering)`` pair.

    All tables are parallel tuples indexed by dense integer ids:
    *process ids* (``pid``) follow the system's process declaration order
    and *channel ids* (``cid``) the channel declaration order, so a TMG
    built from the IR enumerates transitions exactly as a direct build
    from the object model does.

    Attributes:
        system_name: The source system's name (part of the hash — it
            appears in analysis error messages).
        processes: Process names by pid.
        process_kinds: Process-kind codes by pid (:data:`KIND_WORKER`,
            :data:`KIND_SOURCE`, :data:`KIND_SINK`).
        channels: Channel names by cid.
        producers: Producing pid by cid.
        consumers: Consuming pid by cid.
        channel_latencies: Minimum transfer latency by cid.
        capacities: Declared FIFO capacity by cid (0 = rendezvous).
        initial_tokens: Pre-loaded items by cid.
        buffered: By cid, whether the channel behaves as a FIFO
            (:attr:`repro.core.system.Channel.is_buffered`).
        effective_capacities: Realized FIFO depth by cid
            (:attr:`repro.core.system.Channel.effective_capacity`).
        op_kinds: Per pid, the statement opcodes of the process's cyclic
            program in execution order (gets, one compute, puts).
        op_args: Per pid, the opcode arguments — cid for
            :data:`OP_GET`/:data:`OP_PUT`, pid for :data:`OP_COMPUTE`.
        comm_indices: Per pid, the indices into ``op_kinds`` of the
            communication statements (the untimed projection the
            exhaustive verifier explores).
        first_marked: Per pid, the statement index holding the process's
            initial TMG token (the paper's marking rule: first get;
            sources, first put; degenerate processes, the compute).
        structural_hash: SHA-256 hex digest of the canonical rendering —
            the content address of this IR (computed on first use).
    """

    system_name: str
    processes: tuple[str, ...]
    process_kinds: tuple[int, ...]
    channels: tuple[str, ...]
    producers: tuple[int, ...]
    consumers: tuple[int, ...]
    channel_latencies: tuple[int, ...]
    capacities: tuple[int, ...]
    initial_tokens: tuple[int, ...]
    buffered: tuple[bool, ...]
    effective_capacities: tuple[int, ...]
    op_kinds: tuple[tuple[int, ...], ...]
    op_args: tuple[tuple[int, ...], ...]
    comm_indices: tuple[tuple[int, ...], ...]
    first_marked: tuple[int, ...]
    #: Derived name → id maps (not part of the content; rebuilt on
    #: unpickle via __post_init__ if empty).
    process_index: Mapping[str, int] = field(default_factory=dict, compare=False)
    channel_index: Mapping[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.process_index:
            object.__setattr__(
                self,
                "process_index",
                {name: i for i, name in enumerate(self.processes)},
            )
        if not self.channel_index:
            object.__setattr__(
                self,
                "channel_index",
                {name: i for i, name in enumerate(self.channels)},
            )

    def __hash__(self) -> int:
        return hash(self.structural_hash)

    @cached_property
    def structural_hash(self) -> str:
        """The content hash of the canonical rendering (equal to
        :func:`repro.ir.structural_hash_of` of the source pair)."""
        names, channels = self.processes, self.channels
        # Each program is its gets, the compute, then its puts.
        splits = [ops.index(OP_COMPUTE) for ops in self.op_kinds]
        return structural_digest(
            self.system_name,
            zip(names, map(_KIND_VALUES.__getitem__, self.process_kinds)),
            zip(channels, map(names.__getitem__, self.producers),
                map(names.__getitem__, self.consumers), self.channel_latencies,
                self.capacities, self.initial_tokens),
            ((name, map(channels.__getitem__, args[:split]),
              map(channels.__getitem__, args[split + 1:]))
             for name, args, split in zip(names, self.op_args, splits)),
        )

    # ------------------------------------------------------------------
    # Id lookups
    # ------------------------------------------------------------------

    def pid(self, process: str) -> int:
        """The dense id of ``process``."""
        return self.process_index[process]

    def cid(self, channel: str) -> int:
        """The dense id of ``channel``."""
        return self.channel_index[channel]

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    # ------------------------------------------------------------------
    # Program views
    # ------------------------------------------------------------------

    def statements_of(self, pid: int) -> Iterator[tuple[str, str]]:
        """The pid's program decoded to ``(kind, name)`` pairs.

        Matches :meth:`repro.core.system.ChannelOrdering.statements_of`
        item for item — the decoded view exists for reports, witnesses,
        and tests; hot paths index :attr:`op_kinds`/:attr:`op_args`
        directly.
        """
        for kind, arg in zip(self.op_kinds[pid], self.op_args[pid]):
            if kind == OP_COMPUTE:
                yield (OP_NAMES[kind], self.processes[arg])
            else:
                yield (OP_NAMES[kind], self.channels[arg])

    def program_length(self, pid: int) -> int:
        """Number of statements in the pid's cyclic program."""
        return len(self.op_kinds[pid])

    def total_statements(self) -> int:
        """Statements across every process (a size measure for budgets)."""
        return sum(len(ops) for ops in self.op_kinds)

    def __repr__(self) -> str:
        return (
            f"LoweredIR({self.system_name!r}, processes={self.n_processes}, "
            f"channels={self.n_channels}, "
            f"hash={self.structural_hash[:12]}...)"
        )
