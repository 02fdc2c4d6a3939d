"""SDF → system-model compilation via homogeneous expansion.

The classical single-rate (HSDF) expansion: each actor ``a`` with
repetition count ``q_a`` becomes ``q_a`` process instances; the ``k``-th
firing's token-level dependencies become point-to-point channels whose
``initial_tokens`` count the iteration boundaries the dependency crosses.
The result is a plain :class:`~repro.core.system.SystemGraph`, so the
paper's analysis, ordering, sizing, and simulation machinery applies to
multirate specifications unchanged.

Construction per edge (producer rate ``p``, consumer rate ``c``, ``d``
initial tokens): the producer's ``k``-th firing emits stream tokens
``d + p·k … d + p·k + p − 1``; stream token ``t`` is popped by consumer
firing ``t // c``.  With firings folded onto instances modulo the
repetition counts, the dependency from firing ``k`` to firing ``j``
becomes a channel ``a[k mod q_a] → b[j mod q_b]`` with
``j // q_b`` initial tokens (parallel dependencies keep the tightest,
i.e. fewest-token, channel).  Actors are serialized — one hardware
instance executes its ``q`` firings in order — via a cyclic chain of
synchronization channels, matching the paper's serial-process semantics.

The expansion is assembled through the composition layer
(:class:`repro.dsl.design.Design`): instances are nodes, dependencies
are connections, and channel latency/capacity/tokens are expressed as
:class:`~repro.dsl.wire.Wire` metadata (``wire_for_latency``), keeping
this path on the same elaboration contract — declaration order is
composition order — that the hash-pinned generators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import ChannelOrdering, SystemGraph
from repro.dsl.design import Design
from repro.dsl.wire import wire_for_latency
from repro.errors import ValidationError
from repro.sdf.graph import SdfGraph


def instance_name(actor: str, index: int, count: int) -> str:
    """Process name of one actor firing instance."""
    return actor if count == 1 else f"{actor}#{index}"


@dataclass(frozen=True)
class SdfCompilation:
    """The compiled system plus the provenance of its processes.

    ``ordering`` is a deadlock-free statement order computed by Algorithm 1
    over the expansion — the declaration order of a reconvergent expansion
    can deadlock (the paper's Section 2 problem resurfacing at the
    instance level), so analyses should use this ordering.
    """

    system: SystemGraph
    repetitions: dict[str, int]
    ordering: "ChannelOrdering"

    def instances_of(self, actor: str) -> tuple[str, ...]:
        count = self.repetitions[actor]
        return tuple(instance_name(actor, i, count) for i in range(count))


def expansion_design(
    graph: SdfGraph,
    serialize_actors: bool = True,
    sync_latency: int = 1,
) -> tuple[Design, dict[str, int]]:
    """The homogeneous expansion as an *open* composition-layer design.

    Returns the :class:`~repro.dsl.design.Design` holding every firing
    instance and dependency channel, plus the repetition vector.  The
    design is deliberately left open — it is all worker instances, so a
    testbench closure (e.g. :func:`repro.dsl.sdf.streaming_design`) can
    extend it before elaboration.

    Raises:
        ValidationError: The graph is rate-inconsistent, or an actor has a
            self-loop edge that cannot be expressed (self-loops with
            enough delay are implied by serialization and are dropped;
            under-delayed ones would deadlock every schedule).
    """
    repetitions = graph.repetition_vector()
    design = Design(f"{graph.name}.hsdf")

    for actor in graph.actors:
        count = repetitions[actor.name]
        for index in range(count):
            design.worker(
                instance_name(actor.name, index, count),
                latency=actor.execution_time,
            )

    channel_index = 0
    for edge in graph.edges:
        q_prod = repetitions[edge.producer]
        q_cons = repetitions[edge.consumer]
        if edge.producer == edge.consumer:
            # A self-loop bounds auto-concurrency; serialization already
            # enforces one-firing-at-a-time, so a loop with >= production
            # tokens is redundant.  Anything tighter would deadlock.
            if edge.delay < edge.production:
                raise ValidationError(
                    f"edge {edge.name!r}: self-loop with fewer tokens than "
                    "one firing produces deadlocks every schedule"
                )
            if not serialize_actors:
                raise ValidationError(
                    f"edge {edge.name!r}: self-loops require "
                    "serialize_actors=True in this compilation"
                )
            continue
        # Tightest dependency per instance pair, declared in numeric
        # firing order (lexicographic name order would interleave instance
        # 10 before instance 2 and can deadlock the declaration order).
        best: dict[tuple[int, int], int] = {}
        for k in range(q_prod):
            for r in range(edge.production):
                token = edge.delay + edge.production * k + r
                j = token // edge.consumption
                key = (k % q_prod, j % q_cons)
                tokens = j // q_cons
                if key not in best or tokens < best[key]:
                    best[key] = tokens
        for (k_index, j_index), tokens in sorted(best.items()):
            source = instance_name(edge.producer, k_index, q_prod)
            target = instance_name(edge.consumer, j_index, q_cons)
            design.connect(
                f"{edge.name}.{channel_index}",
                source,
                target,
                wire=wire_for_latency(
                    edge.latency, depth=tokens, tokens=tokens
                ),
            )
            channel_index += 1

    if serialize_actors:
        for actor in graph.actors:
            count = repetitions[actor.name]
            if count < 2:
                continue  # the process chain is already serial
            for index in range(count):
                succ = (index + 1) % count
                loopback = 1 if succ == 0 else 0
                design.connect(
                    f"__serial_{actor.name}_{index}",
                    instance_name(actor.name, index, count),
                    instance_name(actor.name, succ, count),
                    wire=wire_for_latency(
                        sync_latency, depth=loopback, tokens=loopback
                    ),
                )

    return design, repetitions


def sdf_to_system(
    graph: SdfGraph,
    serialize_actors: bool = True,
    sync_latency: int = 1,
) -> SdfCompilation:
    """Compile an SDF graph into the blocking-channel system model.

    Args:
        graph: A rate-consistent SDF graph.
        serialize_actors: Chain each actor's instances so one serial
            hardware unit executes all its firings per iteration (the
            paper's process semantics).  Disable for fully parallel
            instance hardware.
        sync_latency: Latency of the serialization channels.

    Raises:
        ValidationError: The graph is rate-inconsistent, or an actor has a
            self-loop edge that cannot be expressed (self-loops with
            enough delay are implied by serialization and are dropped;
            under-delayed ones would deadlock every schedule).
    """
    design, repetitions = expansion_design(
        graph, serialize_actors=serialize_actors, sync_latency=sync_latency
    )

    # The raw expansion is all worker instances (its testbench closure is
    # the caller's concern — see repro.dsl.sdf.streaming_design), so full
    # structural validation is deferred to that closure.
    system = design.build(validate=False)

    # Algorithm 1 over the expansion: the zero-token subgraph of a
    # consistent expansion is acyclic (every backward edge carries
    # tokens), so a deadlock-free ordering always exists and the paper's
    # algorithm finds a throughput-optimized one.
    from repro.ordering.algorithm import channel_ordering

    try:
        ordering = channel_ordering(system)
    except ValidationError:
        # No traversal starting point (degenerate single-actor graphs):
        # the declaration order is trivially fine there.
        ordering = ChannelOrdering.declaration_order(system)

    return SdfCompilation(
        system=system, repetitions=repetitions, ordering=ordering
    )
