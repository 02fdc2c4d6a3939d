"""System-level model: processes, channels, and the system graph.

This module is the reproduction's stand-in for the synthesizable-SystemC
view of a design (Fig. 1 and Listing 1 of the paper).  A system is a set of
concurrent *processes* connected by unidirectional point-to-point
*channels*.  Each process repeatedly executes three phases — input reading,
computation, output writing — where the input and output phases issue
blocking ``get``/``put`` primitives on its channels **in a specific order**.
That statement order is exactly what the paper's Algorithm 1 optimizes, so
it is modelled explicitly (see :class:`ChannelOrdering`).

Only the information the methodology consumes is represented:

* the topology (which process talks to which over which channel),
* the computation latency of each process (cycles, from HLS),
* the minimum transfer latency of each channel (cycles),
* the ordering of the get statements and put statements in each process.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.families import DeclaredFamily
from repro.errors import ValidationError


class ProcessKind(enum.Enum):
    """Role of a process in the system.

    ``WORKER`` processes are part of the design under test.  ``SOURCE`` and
    ``SINK`` processes model the testbench environment (the paper's *Psrc*
    and *Psnk*): a source is always ready to produce fresh input data and a
    sink always ready to consume results.
    """

    WORKER = "worker"
    SOURCE = "source"
    SINK = "sink"


@dataclass(frozen=True)
class Process:
    """A concurrent process (one synthesizable SystemC ``SC_CTHREAD``).

    Attributes:
        name: Unique identifier within the system.
        latency: Computation-phase latency in clock cycles, as determined by
            the micro-architecture selected through HLS.  Testbench
            processes also carry a latency (the environment's turnaround).
        kind: Whether this is a design process or a testbench source/sink.
    """

    name: str
    latency: int = 1
    kind: ProcessKind = ProcessKind.WORKER

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("process name must be non-empty")
        if self.latency < 0:
            raise ValidationError(
                f"process {self.name!r}: latency must be >= 0, got {self.latency}"
            )

    @property
    def is_testbench(self) -> bool:
        """True for testbench (source or sink) processes."""
        return self.kind is not ProcessKind.WORKER

    def with_latency(self, latency: int) -> "Process":
        """Return a copy of this process with a different latency."""
        return replace(self, latency=latency)


@dataclass(frozen=True)
class Channel:
    """A unidirectional point-to-point blocking channel.

    A ``put`` on the producer side and the matching ``get`` on the consumer
    side rendezvous: the transfer starts once both processes have reached
    their primitive and completes ``latency`` cycles later.

    Attributes:
        name: Unique identifier within the system.
        producer: Name of the process that ``put``\\ s on this channel.
        consumer: Name of the process that ``get``\\ s from this channel.
        latency: Minimum number of cycles to transfer one data item.
        capacity: FIFO depth for the non-blocking extension.  ``0`` is the
            pure rendezvous protocol studied in the paper's main text; a
            positive value adds that much slack (tokens) between the two
            endpoints, per the tech-report extension.
        initial_tokens: Data items pre-loaded on the channel before the
            system starts (e.g. an initialized frame store).  A feedback
            loop is live only if at least one of its channels carries an
            initial token; the first ``initial_tokens`` gets on the channel
            do not wait for a matching put.
    """

    name: str
    producer: str
    consumer: str
    latency: int = 1
    capacity: int = 0
    initial_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("channel name must be non-empty")
        if self.latency < 1:
            raise ValidationError(
                f"channel {self.name!r}: latency must be >= 1, got {self.latency}"
            )
        if self.capacity < 0:
            raise ValidationError(
                f"channel {self.name!r}: capacity must be >= 0, got {self.capacity}"
            )
        if self.initial_tokens < 0:
            raise ValidationError(
                f"channel {self.name!r}: initial_tokens must be >= 0, "
                f"got {self.initial_tokens}"
            )
        if self.producer == self.consumer:
            raise ValidationError(
                f"channel {self.name!r}: self-loop on process {self.producer!r} "
                "is not a point-to-point inter-process channel"
            )

    @property
    def is_buffered(self) -> bool:
        """True when the channel behaves as a FIFO rather than a rendezvous.

        ``capacity >= 1`` is an explicit FIFO.  ``initial_tokens > 0`` with
        ``capacity == 0`` *also* buffers: a pure rendezvous cannot hold
        pre-loaded data, so the channel is promoted to a FIFO of
        :attr:`effective_capacity` slots.  This property makes that
        promotion explicit — the TMG builder and the simulator both key off
        it instead of re-deriving the rule locally.
        """
        return self.capacity > 0 or self.initial_tokens > 0

    @property
    def effective_capacity(self) -> int:
        """FIFO depth actually realized: ``max(capacity, initial_tokens)``.

        Zero for a pure rendezvous; for a pre-loaded channel the depth must
        at least hold the initial tokens.
        """
        return max(self.capacity, self.initial_tokens)


class SystemGraph:
    """A system of processes and channels (the graph of Fig. 2(a)).

    The graph records, for each process, its input and output channels in
    *declaration order* — the order in which the get/put statements appear
    in the original source code.  Declaration order is the default channel
    ordering; optimized orders are represented separately by
    :class:`ChannelOrdering` so that one immutable topology can be analyzed
    under many orderings.
    """

    def __init__(self, name: str = "system"):
        self.name = name
        self._processes: dict[str, Process] = {}
        self._channels: dict[str, Channel] = {}
        # Declaration-order port lists.
        self._inputs: dict[str, list[str]] = {}
        self._outputs: dict[str, list[str]] = {}
        # Replication structure declared by the construction layer
        # (:mod:`repro.dsl`).  Advisory metadata: not part of the
        # structural hash, re-verified before every use (repro.sym).
        self._families: tuple[DeclaredFamily, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Register a process.  Raises if the name is already taken."""
        if process.name in self._processes:
            raise ValidationError(f"duplicate process {process.name!r}")
        self._processes[process.name] = process
        self._inputs[process.name] = []
        self._outputs[process.name] = []
        return process

    def add_channel(self, channel: Channel) -> Channel:
        """Register a channel between two existing processes.

        The channel is appended to the producer's output declaration order
        and the consumer's input declaration order.
        """
        if channel.name in self._channels:
            raise ValidationError(f"duplicate channel {channel.name!r}")
        outputs = self._outputs.get(channel.producer)
        inputs = self._inputs.get(channel.consumer)
        if outputs is None or inputs is None:
            unknown = channel.producer if outputs is None else channel.consumer
            raise ValidationError(
                f"channel {channel.name!r} references unknown process "
                f"{unknown!r}"
            )
        self._channels[channel.name] = channel
        outputs.append(channel.name)
        inputs.append(channel.name)
        return channel

    def replace_process(self, process: Process) -> None:
        """Swap a process definition in place (same name, e.g. new latency)."""
        if process.name not in self._processes:
            raise ValidationError(f"unknown process {process.name!r}")
        self._processes[process.name] = process

    def replace_channel(self, channel: Channel) -> None:
        """Swap a channel definition in place (same name and endpoints).

        Only the scalar attributes (latency, capacity, initial tokens) may
        change: the declaration-order port lists are keyed by endpoints, so
        rerouting a channel would desynchronize them.
        """
        existing = self.channel(channel.name)
        if (channel.producer, channel.consumer) != (
            existing.producer,
            existing.consumer,
        ):
            raise ValidationError(
                f"channel {channel.name!r}: replace_channel cannot change "
                f"endpoints ({existing.producer}->{existing.consumer} vs "
                f"{channel.producer}->{channel.consumer})"
            )
        self._channels[channel.name] = channel

    def with_channel_capacities(
        self, capacities: Mapping[str, int]
    ) -> "SystemGraph":
        """Return a copy of this system with some channel capacities replaced.

        Unspecified channels keep their declared capacity.  This is how a
        buffer-sizing or batched-simulation step applies candidate FIFO
        depths without mutating the original model.
        """
        clone = self.copy()
        for name, capacity in capacities.items():
            existing = clone.channel(name)
            if capacity != existing.capacity:
                clone.replace_channel(replace(existing, capacity=capacity))
        return clone

    def with_process_latencies(self, latencies: Mapping[str, int]) -> "SystemGraph":
        """Return a copy of this system with some process latencies replaced.

        Unspecified processes keep their current latency.  This is how a
        design-space-exploration step applies an implementation selection
        without mutating the original model.
        """
        clone = self.copy()
        for name, latency in latencies.items():
            clone.replace_process(clone.process(name).with_latency(latency))
        return clone

    def copy(self) -> "SystemGraph":
        """Deep-enough copy: shares the frozen Process/Channel values."""
        clone = SystemGraph(self.name)
        clone._processes = dict(self._processes)
        clone._channels = dict(self._channels)
        clone._inputs = {k: list(v) for k, v in self._inputs.items()}
        clone._outputs = {k: list(v) for k, v in self._outputs.items()}
        clone._families = self._families
        return clone

    # ------------------------------------------------------------------
    # Declared replication structure
    # ------------------------------------------------------------------

    @property
    def declared_families(self) -> tuple[DeclaredFamily, ...]:
        """Replication families declared by the construction layer.

        Advisory metadata carried alongside the topology: it survives
        :meth:`copy` (hence :meth:`with_channel_capacities` and
        :meth:`with_process_latencies`, so DSE candidates keep their
        family structure) but takes no part in the structural hash, and
        every consumer re-verifies the induced generators against the
        lowered program before trusting them (:mod:`repro.sym.declared`).
        """
        return self._families

    def declare_families(
        self, families: Iterable[DeclaredFamily]
    ) -> "SystemGraph":
        """Replace the declared replication families (returns ``self``).

        Every referenced process and channel must exist — a family
        naming a missing member is a construction bug worth failing at
        the declaration site, not a claim to be silently dropped later.
        """
        checked: list[DeclaredFamily] = []
        for family in families:
            process_members, channel_members = family.members()
            for member in sorted(process_members):
                if member not in self._processes:
                    raise ValidationError(
                        f"family {family.name!r} references unknown "
                        f"process {member!r}"
                    )
            for member in sorted(channel_members):
                if member not in self._channels:
                    raise ValidationError(
                        f"family {family.name!r} references unknown "
                        f"channel {member!r}"
                    )
            checked.append(family)
        self._families = tuple(checked)
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def process(self, name: str) -> Process:
        try:
            return self._processes[name]
        except KeyError:
            raise ValidationError(f"unknown process {name!r}") from None

    def channel(self, name: str) -> Channel:
        try:
            return self._channels[name]
        except KeyError:
            raise ValidationError(f"unknown channel {name!r}") from None

    def has_process(self, name: str) -> bool:
        return name in self._processes

    def has_channel(self, name: str) -> bool:
        return name in self._channels

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes.values())

    @property
    def channels(self) -> tuple[Channel, ...]:
        return tuple(self._channels.values())

    @property
    def process_names(self) -> tuple[str, ...]:
        return tuple(self._processes)

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self._channels)

    def input_channels(self, process: str) -> tuple[str, ...]:
        """Input channel names of ``process`` in declaration order."""
        self.process(process)
        return tuple(self._inputs[process])

    def output_channels(self, process: str) -> tuple[str, ...]:
        """Output channel names of ``process`` in declaration order."""
        self.process(process)
        return tuple(self._outputs[process])

    def sources(self) -> tuple[Process, ...]:
        return tuple(
            p for p in self._processes.values() if p.kind is ProcessKind.SOURCE
        )

    def sinks(self) -> tuple[Process, ...]:
        return tuple(
            p for p in self._processes.values() if p.kind is ProcessKind.SINK
        )

    def workers(self) -> tuple[Process, ...]:
        return tuple(
            p for p in self._processes.values() if p.kind is ProcessKind.WORKER
        )

    def predecessors(self, process: str) -> tuple[str, ...]:
        """Producer processes of the input channels of ``process``."""
        return tuple(self.channel(c).producer for c in self.input_channels(process))

    def successors(self, process: str) -> tuple[str, ...]:
        """Consumer processes of the output channels of ``process``."""
        return tuple(self.channel(c).consumer for c in self.output_channels(process))

    def process_latencies(self) -> dict[str, int]:
        return {p.name: p.latency for p in self._processes.values()}

    def channel_latencies(self) -> dict[str, int]:
        return {c.name: c.latency for c in self._channels.values()}

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def order_space_size(self) -> int:
        """Number of distinct channel orderings of the whole system.

        This is the paper's combinatorial bound
        ``prod_p |in_chan(p)|! * |out_chan(p)|!`` over non-testbench
        processes (Section 2; 36 for the motivating example).  Testbench
        processes are excluded because their statement order is part of the
        environment, not of the design under optimization.
        """
        total = 1
        for p in self.workers():
            total *= math.factorial(len(self._inputs[p.name]))
            total *= math.factorial(len(self._outputs[p.name]))
        return total

    def __contains__(self, name: str) -> bool:
        return name in self._processes or name in self._channels

    def __repr__(self) -> str:
        return (
            f"SystemGraph({self.name!r}, processes={len(self._processes)}, "
            f"channels={len(self._channels)})"
        )


@dataclass(frozen=True)
class ChannelOrdering:
    """The order of get and put statements in every process.

    ``gets[p]`` is the sequence of input channel names read by process ``p``,
    first to last; ``puts[p]`` the sequence of output channel names written.
    Orderings are immutable values: the ordering algorithm consumes one
    system and produces a new :class:`ChannelOrdering` without touching the
    topology.
    """

    gets: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    puts: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @staticmethod
    def declaration_order(system: SystemGraph) -> "ChannelOrdering":
        """The ordering implied by the source code's statement order."""
        return ChannelOrdering(
            gets={p.name: system.input_channels(p.name) for p in system.processes},
            puts={p.name: system.output_channels(p.name) for p in system.processes},
        )

    @staticmethod
    def from_orders(
        system: SystemGraph,
        gets: Mapping[str, Sequence[str]] | None = None,
        puts: Mapping[str, Sequence[str]] | None = None,
    ) -> "ChannelOrdering":
        """Declaration order with selected processes overridden.

        Only the processes present in ``gets``/``puts`` change; each
        override must be a permutation of the process's channels (checked
        by :meth:`validate`).
        """
        base = ChannelOrdering.declaration_order(system)
        new_gets = dict(base.gets)
        new_puts = dict(base.puts)
        for name, order in (gets or {}).items():
            new_gets[name] = tuple(order)
        for name, order in (puts or {}).items():
            new_puts[name] = tuple(order)
        ordering = ChannelOrdering(gets=new_gets, puts=new_puts)
        ordering.validate(system)
        return ordering

    def validate(self, system: SystemGraph) -> None:
        """Check this ordering is a permutation of each process's ports."""
        for name in system.process_names:
            declared_in = sorted(system.input_channels(name))
            declared_out = sorted(system.output_channels(name))
            got_in = sorted(self.gets.get(name, ()))
            got_out = sorted(self.puts.get(name, ()))
            if got_in != declared_in:
                raise ValidationError(
                    f"ordering for {name!r}: gets {got_in} is not a permutation "
                    f"of input channels {declared_in}"
                )
            if got_out != declared_out:
                raise ValidationError(
                    f"ordering for {name!r}: puts {got_out} is not a permutation "
                    f"of output channels {declared_out}"
                )

    def gets_of(self, process: str) -> tuple[str, ...]:
        return tuple(self.gets.get(process, ()))

    def puts_of(self, process: str) -> tuple[str, ...]:
        return tuple(self.puts.get(process, ()))

    def statements_of(self, process: str) -> tuple[tuple[str, str], ...]:
        """The serial statement chain of a process.

        Returns ``(kind, channel-or-process)`` pairs in execution order:
        the gets, then one ``("compute", process)`` statement, then the
        puts.  This is the chain the TMG builder turns into places.
        """
        chain: list[tuple[str, str]] = [("get", c) for c in self.gets_of(process)]
        chain.append(("compute", process))
        chain.extend(("put", c) for c in self.puts_of(process))
        return tuple(chain)

    def differs_from(self, other: "ChannelOrdering") -> tuple[str, ...]:
        """Names of processes whose get or put order differs from ``other``."""
        names = set(self.gets) | set(other.gets) | set(self.puts) | set(other.puts)
        return tuple(
            sorted(
                name
                for name in names
                if self.gets.get(name, ()) != other.gets.get(name, ())
                or self.puts.get(name, ()) != other.puts.get(name, ())
            )
        )


def all_orderings(system: SystemGraph) -> Iterator[ChannelOrdering]:
    """Enumerate every channel ordering of the system.

    Testbench processes keep their declaration order (the environment is
    fixed); worker processes contribute all permutations of their gets and
    puts.  The number of yielded orderings equals
    :meth:`SystemGraph.order_space_size`.  Exponential — intended for small
    systems and for use as an exact oracle in tests and benchmarks.
    """
    base = ChannelOrdering.declaration_order(system)
    workers = [p.name for p in system.workers()]
    get_perms = [
        [tuple(perm) for perm in itertools.permutations(system.input_channels(w))]
        for w in workers
    ]
    put_perms = [
        [tuple(perm) for perm in itertools.permutations(system.output_channels(w))]
        for w in workers
    ]
    for get_choice in itertools.product(*get_perms):
        for put_choice in itertools.product(*put_perms):
            gets = dict(base.gets)
            puts = dict(base.puts)
            for w, g, p in zip(workers, get_choice, put_choice):
                gets[w] = g
                puts[w] = p
            yield ChannelOrdering(gets=gets, puts=puts)
