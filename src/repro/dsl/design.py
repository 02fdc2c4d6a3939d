"""The open netlist the DSL combinators compose, and its elaboration.

A :class:`Design` is a *partial* system: nodes (processes-to-be) and
edges (channels-to-be) plus **dangling ports** — declared-but-unwired
inputs and outputs, each carrying a :class:`~repro.dsl.wire.Wire` that
types it.  Combinators (:mod:`repro.dsl.combinators`) merge designs and
wire ports positionally; :meth:`Design.build` elaborates the closed
result into an ordinary validated
:class:`~repro.core.system.SystemGraph`.

Elaboration guarantees:

* **Declaration order is composition order.**  Processes appear in node
  insertion order and channels in connection order, so the default
  statement order of the elaborated system is exactly the order the
  design was composed in — the same property hand-built
  ``SystemBuilder`` code has.
* **Channel physics is derived.**  Latency, capacity, and initial
  tokens come from the connection's merged :class:`Wire`
  (payload/rate/setup/depth/tokens), never hand-entered at the
  connection site.
* **Replication structure is recorded.**  Combinators that replicate
  (``parallel``/``replicate``/``ring``/``mesh``/``butterfly``) declare
  the replica blocks as they build; every subsequent connection into a
  replicated block extends the blocks, so the elaborated system carries
  :class:`~repro.core.families.DeclaredFamily` entries the symmetry
  layer verifies and spends (ERM701, orbit-deduped DSE) without
  rediscovery.  A connection that *breaks* a claimed symmetry (e.g. a
  hand edge between two lanes of an interchangeable family) retracts
  the family rather than declaring something false.

Errors are raised **at the call site** of the offending composition
step (:class:`~repro.errors.CompositionError`), naming the port or node
at fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.families import DeclaredFamily
from repro.core.system import Channel, Process, ProcessKind, SystemGraph
from repro.core.validation import validate_system
from repro.dsl.wire import Wire
from repro.errors import CompositionError, ValidationError


@dataclass(frozen=True)
class Port:
    """One dangling (not yet connected) design port.

    Attributes:
        node: The node the port belongs to.
        label: Port label, unique per node and direction.
        wire: The payload type and physics the port expects.
    """

    node: str
    label: str
    wire: Wire

    def __str__(self) -> str:
        return f"{self.node}.{self.label}"


@dataclass(frozen=True)
class _Edge:
    """One internal (wired) connection."""

    name: str
    producer: str
    consumer: str
    wire: Wire


class _FamilySketch:
    """Mutable replica-block bookkeeping while a design is under
    composition; frozen to a :class:`DeclaredFamily` at elaboration."""

    def __init__(
        self,
        name: str,
        kind: str,
        process_blocks: Iterable[Iterable[str]],
        channel_blocks: Iterable[Iterable[str]],
    ):
        self.name = name
        self.kind = kind
        self.process_blocks: list[list[str]] = [
            list(block) for block in process_blocks
        ]
        self.channel_blocks: list[list[str]] = [
            list(block) for block in channel_blocks
        ]
        while len(self.channel_blocks) < len(self.process_blocks):
            self.channel_blocks.append([])
        self.broken = False
        self._pblock: dict[str, int] = {
            member: index
            for index, block in enumerate(self.process_blocks)
            for member in block
        }

    def block_of(self, node: str) -> int | None:
        return self._pblock.get(node)

    def adopt_process(self, block: int, name: str) -> None:
        self.process_blocks[block].append(name)
        self._pblock[name] = block

    def adopt_channel(self, block: int, name: str) -> None:
        self.channel_blocks[block].append(name)

    def freeze(self) -> DeclaredFamily | None:
        """The immutable family, or ``None`` when the claim died.

        A sketch that was broken by an asymmetric connection, or whose
        blocks ended up misaligned (the replicas were not structural
        copies after all), yields no family — declarations must never
        overclaim.
        """
        if self.broken:
            return None
        try:
            return DeclaredFamily(
                name=self.name,
                kind=self.kind,
                process_blocks=tuple(
                    tuple(block) for block in self.process_blocks
                ),
                channel_blocks=tuple(
                    tuple(block) for block in self.channel_blocks
                ),
            )
        except ValidationError:
            return None


class Design:
    """A composable open netlist (see the module docstring).

    Designs are consumed linearly: combinators merge their arguments
    into the result in place, so a ``Design`` value must not be passed
    to two compositions — build each replica fresh (that is what the
    stage factories are for).
    """

    def __init__(self, name: str = "design"):
        self.name = name
        self._nodes: dict[str, Process] = {}
        self._edges: dict[str, _Edge] = {}
        self._inputs: list[Port] = []
        self._outputs: list[Port] = []
        self._families: list[_FamilySketch] = []

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def _add_node(self, name: str, latency: int, kind: ProcessKind) -> str:
        if name in self._nodes:
            raise CompositionError(
                f"design {self.name!r}: duplicate node {name!r}"
            )
        self._nodes[name] = Process(name, latency=latency, kind=kind)
        return name

    def worker(self, name: str, latency: int = 1) -> str:
        """Add a worker (design) node; returns its name."""
        return self._add_node(name, latency, ProcessKind.WORKER)

    def source(self, name: str, latency: int = 1) -> str:
        """Add a testbench source node; returns its name."""
        return self._add_node(name, latency, ProcessKind.SOURCE)

    def sink(self, name: str, latency: int = 1) -> str:
        """Add a testbench sink node; returns its name."""
        return self._add_node(name, latency, ProcessKind.SINK)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edge_names(self) -> tuple[str, ...]:
        return tuple(self._edges)

    def node_latency(self, name: str) -> int:
        if name not in self._nodes:
            raise CompositionError(
                f"design {self.name!r}: unknown node {name!r}"
            )
        return self._nodes[name].latency

    # ------------------------------------------------------------------
    # Dangling ports
    # ------------------------------------------------------------------

    def input(self, node: str, label: str = "in", wire: Wire = Wire()) -> Port:
        """Declare a dangling input port on ``node``."""
        return self._add_port(self._inputs, "input", node, label, wire)

    def output(
        self, node: str, label: str = "out", wire: Wire = Wire()
    ) -> Port:
        """Declare a dangling output port on ``node``."""
        return self._add_port(self._outputs, "output", node, label, wire)

    def _add_port(
        self,
        ports: list[Port],
        direction: str,
        node: str,
        label: str,
        wire: Wire,
    ) -> Port:
        if node not in self._nodes:
            raise CompositionError(
                f"design {self.name!r}: cannot declare {direction} port on "
                f"unknown node {node!r}"
            )
        if any(p.node == node and p.label == label for p in ports):
            raise CompositionError(
                f"design {self.name!r}: duplicate {direction} port "
                f"{node}.{label}"
            )
        port = Port(node, label, wire)
        ports.append(port)
        return port

    @property
    def inputs(self) -> tuple[Port, ...]:
        """Dangling input ports, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[Port, ...]:
        """Dangling output ports, in declaration order."""
        return tuple(self._outputs)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def connect(
        self, name: str, producer: str, consumer: str, wire: Wire = Wire()
    ) -> str:
        """Wire ``producer`` → ``consumer`` directly, with an explicit
        channel name.

        The node-level escape hatch beneath the port-level combinators —
        this is what the hash-pinned generators use to control exact
        channel names.  Fails at this call site when either endpoint is
        unknown, naming the offending role.
        """
        for role, endpoint in (("producer", producer), ("consumer", consumer)):
            if endpoint not in self._nodes:
                raise CompositionError(
                    f"design {self.name!r}: channel {name!r} {role} "
                    f"{endpoint!r} is not a node of this design"
                )
        if producer == consumer:
            raise CompositionError(
                f"design {self.name!r}: channel {name!r} would be a "
                f"self-loop on {producer!r}"
            )
        if name in self._edges:
            raise CompositionError(
                f"design {self.name!r}: duplicate channel {name!r}"
            )
        self._edges[name] = _Edge(name, producer, consumer, wire)
        self._note_edge(name, producer, consumer)
        return name

    def wire_ports(
        self,
        out_port: Port,
        in_port: Port,
        name: str | None = None,
        wire: Wire | None = None,
    ) -> str:
        """Connect a dangling output port to a dangling input port.

        The ports must be payload-compatible (equal elements and rate);
        the channel wire is the conservative merge of the two port
        declarations unless ``wire`` overrides it.  The channel name
        defaults to the producer port's ``node.label``.
        """
        if out_port not in self._outputs:
            raise CompositionError(
                f"design {self.name!r}: {out_port} is not a dangling "
                "output of this design"
            )
        if in_port not in self._inputs:
            raise CompositionError(
                f"design {self.name!r}: {in_port} is not a dangling "
                "input of this design"
            )
        if not out_port.wire.compatible(in_port.wire):
            raise CompositionError(
                f"design {self.name!r}: port type mismatch — output "
                f"{out_port} carries {out_port.wire.elements} element(s) "
                f"at rate {out_port.wire.rate}, input {in_port} expects "
                f"{in_port.wire.elements} element(s) at rate "
                f"{in_port.wire.rate}"
            )
        channel_wire = wire if wire is not None else out_port.wire.merged(
            in_port.wire
        )
        channel_name = name if name is not None else str(out_port)
        self.connect(
            channel_name, out_port.node, in_port.node, wire=channel_wire
        )
        self._outputs.remove(out_port)
        self._inputs.remove(in_port)
        return channel_name

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def merge(self, other: "Design") -> "Design":
        """Absorb ``other`` into this design (returns ``self``).

        Node and edge names must be disjoint.  ``other``'s dangling
        ports are appended after this design's own (in ``other``'s
        declaration order) and its family sketches come along —
        ``other`` is consumed and must not be used afterwards.
        """
        node_clash = sorted(set(self._nodes) & set(other._nodes))
        if node_clash:
            raise CompositionError(
                f"design {self.name!r}: merging {other.name!r} collides on "
                f"node(s) {', '.join(repr(n) for n in node_clash[:5])}"
            )
        edge_clash = sorted(set(self._edges) & set(other._edges))
        if edge_clash:
            raise CompositionError(
                f"design {self.name!r}: merging {other.name!r} collides on "
                f"channel(s) {', '.join(repr(n) for n in edge_clash[:5])}"
            )
        self._nodes.update(other._nodes)
        self._edges.update(other._edges)
        self._inputs.extend(other._inputs)
        self._outputs.extend(other._outputs)
        self._families.extend(other._families)
        return self

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------

    def declare_family(
        self,
        name: str,
        kind: str,
        process_blocks: Iterable[Iterable[str]],
        channel_blocks: Iterable[Iterable[str]] = (),
    ) -> None:
        """Record a replication claim over existing nodes/edges.

        Later connections into the blocks extend them automatically
        (:meth:`connect`); connections that contradict the claim retract
        it.  The claim is frozen — and re-verified downstream — at
        :meth:`build`.
        """
        sketch = _FamilySketch(name, kind, process_blocks, channel_blocks)
        for block in sketch.process_blocks:
            for member in block:
                if member not in self._nodes:
                    raise CompositionError(
                        f"design {self.name!r}: family {name!r} references "
                        f"unknown node {member!r}"
                    )
        for block in sketch.channel_blocks:
            for member in block:
                if member not in self._edges:
                    raise CompositionError(
                        f"design {self.name!r}: family {name!r} references "
                        f"unknown channel {member!r}"
                    )
        self._families.append(sketch)

    def adopt_process_into_family(self, anchor: str, node: str) -> None:
        """Extend every family block containing ``anchor`` with ``node``.

        Used by :func:`repro.dsl.combinators.testbenched` so per-lane
        sources/sinks join their lane's replica block — without this the
        testbench processes would pin the lanes and kill the symmetry
        they are meant to preserve.  Call it *before* connecting the new
        node (the connection's channel is then block-extended by the
        regular :meth:`connect` bookkeeping, exactly once).
        """
        for family in self._families:
            block = family.block_of(anchor)
            if block is not None:
                family.adopt_process(block, node)

    def _note_edge(self, name: str, producer: str, consumer: str) -> None:
        """Family bookkeeping for one new edge.

        An edge inside one block (or from/to the outside) extends that
        block; a constant-offset cross-block edge is rotation-aligned in
        a cyclic family (ring hops); any other cross-block edge breaks
        the claim — an interchangeable family has no lane-to-lane wiring.
        """
        for family in self._families:
            if family.broken:
                continue
            pb = family.block_of(producer)
            cb = family.block_of(consumer)
            if pb is None and cb is None:
                continue
            if pb is not None and cb is not None and pb != cb:
                if family.kind == "cyclic":
                    family.adopt_channel(pb, name)
                else:
                    family.broken = True
            else:
                family.adopt_channel(pb if pb is not None else cb, name)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------

    def build(
        self,
        name: str | None = None,
        validate: bool = True,
        allow_dangling: bool = False,
    ) -> SystemGraph:
        """Elaborate to a :class:`SystemGraph`.

        Raises :class:`CompositionError` when the design still has
        dangling ports (pass ``allow_dangling=True`` for deliberately
        open intermediate builds) and runs
        :func:`~repro.core.validation.validate_system` on the result by
        default.  Surviving family sketches are frozen and attached as
        :attr:`~repro.core.system.SystemGraph.declared_families`.
        """
        if not allow_dangling and (self._inputs or self._outputs):
            dangling = [f"->{p}" for p in self._inputs]
            dangling += [f"{p}->" for p in self._outputs]
            raise CompositionError(
                f"design {self.name!r}: cannot elaborate with unconnected "
                f"port(s): {', '.join(dangling[:8])}"
                + (" …" if len(dangling) > 8 else "")
            )
        system = SystemGraph(name if name is not None else self.name)
        for process in self._nodes.values():
            system.add_process(process)
        for edge in self._edges.values():
            system.add_channel(
                Channel(
                    edge.name,
                    edge.producer,
                    edge.consumer,
                    latency=edge.wire.latency,
                    capacity=edge.wire.capacity,
                    initial_tokens=edge.wire.tokens,
                )
            )
        families = [
            family
            for family in (sketch.freeze() for sketch in self._families)
            if family is not None
        ]
        if families:
            system.declare_families(families)
        if validate:
            validate_system(system)
        return system

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)})"
        )


__all__ = ["Design", "Port"]
