"""Hypothesis strategies for property-based tests.

Generates random-but-valid systems and event graphs with the structural
guarantees the library expects (layered worker DAGs with a testbench, plus
optional pre-loaded feedback channels), so properties quantify over a rich
slice of real inputs instead of degenerate noise.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.builder import SystemBuilder
from repro.core.system import ChannelOrdering, SystemGraph
from repro.dsl import (
    butterfly,
    fanout,
    join,
    mesh,
    pipe,
    rate_chain,
    reduce_tree,
    replicate,
    ring,
    sink_stage,
    source_stage,
    stage,
    testbenched,
    wire_for_latency,
)
from repro.ordering import declaration_ordering
from repro.sdf import SdfGraph
from repro.tmg.graph import TimedMarkedGraph


@st.composite
def layered_systems(
    draw,
    max_layers: int = 4,
    max_width: int = 3,
    max_latency: int = 12,
    feedback: bool = True,
) -> SystemGraph:
    """A random layered system: source → worker layers → sink.

    Every worker reads from at least one earlier process and every
    worker's outputs eventually drain to the sink, so the result always
    passes validation.  With ``feedback=True`` up to two later→earlier
    channels (with one initial token each) may be added.
    """
    n_layers = draw(st.integers(1, max_layers))
    widths = [draw(st.integers(1, max_width)) for _ in range(n_layers)]
    latency = lambda: draw(st.integers(1, max_latency))  # noqa: E731

    builder = SystemBuilder("hyp")
    builder.source("src", latency=latency())
    layers: list[list[str]] = []
    count = 0
    for width in widths:
        layer = []
        for _ in range(width):
            name = f"w{count}"
            builder.process(name, latency=latency())
            layer.append(name)
            count += 1
        layers.append(layer)
    builder.sink("snk", latency=latency())

    channel = 0

    def add(producer: str, consumer: str, tokens: int = 0) -> None:
        nonlocal channel
        builder.channel(
            f"c{channel}",
            producer,
            consumer,
            latency=draw(st.integers(1, max_latency)),
            initial_tokens=tokens,
        )
        channel += 1

    # Source feeds every first-layer worker.
    for name in layers[0]:
        add("src", name)
    # Every later worker reads from one random earlier worker; extra
    # forward channels sprinkle reconvergence.
    for depth in range(1, n_layers):
        for name in layers[depth]:
            earlier_layer = layers[draw(st.integers(0, depth - 1))]
            producer = earlier_layer[draw(st.integers(0, len(earlier_layer) - 1))]
            add(producer, name)
    flat = [name for layer in layers for name in layer]
    extra = draw(st.integers(0, min(4, len(flat)))) if len(flat) >= 2 else 0
    for _ in range(extra):
        i = draw(st.integers(0, len(flat) - 2))
        j = draw(st.integers(i + 1, len(flat) - 1))
        if flat[i] != flat[j]:
            add(flat[i], flat[j])
    # Optional feedback with a pre-loaded token.
    if feedback and len(flat) >= 2:
        n_feedback = draw(st.integers(0, 2))
        for _ in range(n_feedback):
            j = draw(st.integers(1, len(flat) - 1))
            i = draw(st.integers(0, j - 1))
            add(flat[j], flat[i], tokens=draw(st.integers(1, 2)))

    # Drain everything that cannot reach the sink into the sink.
    system = builder.build(validate=False)
    for name in flat:
        if not system.output_channels(name):
            add(name, "snk")
    from repro.core.generators import _not_coreachable

    for name in _not_coreachable(system, "snk"):
        add(name, "snk")
    if not system.input_channels("snk"):
        add(flat[-1], "snk")
    return builder.build()


@st.composite
def replicated_lane_systems(
    draw,
    min_lanes: int = 2,
    max_lanes: int = 5,
    max_latency: int = 6,
    max_capacity: int = 3,
) -> SystemGraph:
    """A k-wide replicated fanout: per-lane source → worker → sink.

    Built through the DSL: :func:`repro.dsl.replicate` declares the
    ``lanes`` family and per-port :func:`repro.dsl.testbenched` closure
    keeps it exact, so the strict automorphism group contains the full
    symmetric group on lanes — the canonical "family of interchangeable
    stages" the compositional flow produces.
    """
    k = draw(st.integers(min_lanes, max_lanes))
    src_latency = draw(st.integers(1, max_latency))
    worker_latency = draw(st.integers(1, max_latency))
    snk_latency = draw(st.integers(1, max_latency))
    capacity = draw(st.integers(0, max_capacity))
    in_wire = wire_for_latency(
        draw(st.integers(1, max_latency)), depth=capacity
    )
    out_wire = wire_for_latency(
        draw(st.integers(1, max_latency)), depth=capacity
    )

    design = replicate(
        k,
        lambda i: stage(
            f"w{i}",
            latency=worker_latency,
            inputs=[("in", in_wire)],
            outputs=[("out", out_wire)],
        ),
        family="lanes",
    )
    testbenched(
        design, source_latency=src_latency, sink_latency=snk_latency
    )
    return design.build(name="lanes")


@st.composite
def replicated_ring_systems(
    draw,
    min_stages: int = 3,
    max_stages: int = 6,
    max_latency: int = 4,
    max_capacity: int = 2,
) -> SystemGraph:
    """A k-stage rotationally symmetric ring with per-stage testbench.

    Built through :func:`repro.dsl.ring`: every stage declares its ports
    in the same order (ring hop first, then the testbench tap), the hop
    channels carry one pre-loaded token each, and the per-port testbench
    closure keeps every stage's statement order aligned with the
    rotation — so the strict automorphism group contains the cyclic
    group Z_k and the declared ``ring`` family verifies exactly.
    """
    k = draw(st.integers(min_stages, max_stages))
    stage_latency = draw(st.integers(1, max_latency))
    tb_latency = draw(st.integers(1, max_latency))
    ring_capacity = draw(st.integers(1, max_capacity))
    hop_wire = wire_for_latency(1, depth=ring_capacity)
    tb_wire = wire_for_latency(1, depth=1)

    parts = [
        stage(
            f"st{i}",
            latency=stage_latency,
            inputs=[("ring_in", hop_wire), ("in", tb_wire)],
            outputs=[("ring_out", hop_wire), ("out", tb_wire)],
        )
        for i in range(k)
    ]
    design = ring(parts, tokens=1, family="ring")
    testbenched(
        design, source_latency=tb_latency, sink_latency=tb_latency
    )
    return design.build(name="ring")


@st.composite
def replicated_pipeline_systems(
    draw,
    min_lanes: int = 2,
    max_lanes: int = 4,
    min_depth: int = 2,
    max_depth: int = 3,
    max_latency: int = 6,
) -> SystemGraph:
    """k parallel pipelines of identical stages: src_i → s_i0 → … → snk_i.

    Depth-replicated *and* lane-replicated: lanes are interchangeable
    (full S_k on lanes) while stages within a lane are pinned by their
    depth.
    """
    k = draw(st.integers(min_lanes, max_lanes))
    depth = draw(st.integers(min_depth, max_depth))
    tb_latency = draw(st.integers(1, max_latency))
    stage_latencies = [
        draw(st.integers(1, max_latency)) for _ in range(depth)
    ]
    lane_wire = wire_for_latency(1, depth=draw(st.integers(0, 2)))

    design = replicate(
        k,
        lambda i: pipe(
            *(
                stage(
                    f"s{i}_{d}",
                    latency=stage_latencies[d],
                    wire=lane_wire,
                )
                for d in range(depth)
            )
        ),
        family="pipes",
    )
    testbenched(
        design, source_latency=tb_latency, sink_latency=tb_latency
    )
    return design.build(name="pipes")


def replicated_family_systems() -> st.SearchStrategy[SystemGraph]:
    """Any of the replicated-family shapes (lanes, rings, pipelines)."""
    return st.one_of(
        replicated_lane_systems(),
        replicated_ring_systems(),
        replicated_pipeline_systems(),
    )


def small_replicated_families() -> st.SearchStrategy[SystemGraph]:
    """Replicated families kept small enough for repeated *plain* BFS.

    The quotient side would happily take larger instances; the plain
    reference search it is compared against would not.
    """
    return st.one_of(
        replicated_lane_systems(max_lanes=3, max_latency=3, max_capacity=1),
        replicated_ring_systems(max_stages=4, max_latency=3, max_capacity=1),
        replicated_pipeline_systems(
            max_lanes=2, max_depth=2, max_latency=3
        ),
    )


@st.composite
def random_orderings(draw, system: SystemGraph) -> ChannelOrdering:
    """A uniformly shuffled per-process statement ordering."""
    base = declaration_ordering(system)
    gets = {
        name: tuple(draw(st.permutations(list(base.gets_of(name)))))
        for name in system.process_names
    }
    puts = {
        name: tuple(draw(st.permutations(list(base.puts_of(name)))))
        for name in system.process_names
    }
    return ChannelOrdering(gets=gets, puts=puts)


# ----------------------------------------------------------------------
# One strategy per DSL combinator: each yields a *closed* SystemGraph
# elaborated through that combinator, so properties can quantify over
# the whole catalog (tests/dsl/test_combinator_properties.py).
# ----------------------------------------------------------------------


def _stage_wire(draw, max_latency: int = 6) -> "object":
    return wire_for_latency(
        draw(st.integers(1, max_latency)), depth=draw(st.integers(0, 2))
    )


@st.composite
def dsl_pipe_systems(draw, max_stages: int = 5) -> SystemGraph:
    """source_stage → pipe of worker stages → sink_stage."""
    n = draw(st.integers(1, max_stages))
    wire = _stage_wire(draw)
    design = pipe(
        source_stage("src", latency=draw(st.integers(1, 4)), wire=wire),
        *(
            stage(f"w{i}", latency=draw(st.integers(1, 8)), wire=wire)
            for i in range(n)
        ),
        sink_stage("snk", latency=draw(st.integers(1, 4)), wire=wire),
    )
    return design.build(name="dsl_pipe")


@st.composite
def dsl_parallel_systems(draw, max_lanes: int = 4) -> SystemGraph:
    """replicate() lanes closed per-port: the declared 'lanes' family."""
    k = draw(st.integers(2, max_lanes))
    wire = _stage_wire(draw)
    latency = draw(st.integers(1, 8))
    design = replicate(
        k,
        lambda i: stage(f"w{i}", latency=latency, wire=wire),
        family="lanes",
    )
    testbenched(design)
    return design.build(name="dsl_parallel")


@st.composite
def dsl_fanout_join_systems(draw, max_lanes: int = 4) -> SystemGraph:
    """fanout() from one source over lanes, joined into one sink."""
    k = draw(st.integers(2, max_lanes))
    wire = _stage_wire(draw)
    latency = draw(st.integers(1, 8))
    head = source_stage(
        "src", latency=draw(st.integers(1, 4)), outputs=k, wire=wire
    )
    lanes = [stage(f"w{i}", latency=latency, wire=wire) for i in range(k)]
    design = fanout(head, *lanes, family="lanes")
    design = join(
        design,
        tail=sink_stage(
            "snk", latency=draw(st.integers(1, 4)), inputs=k, wire=wire
        ),
    )
    return design.build(name="dsl_fanout_join")


@st.composite
def dsl_reduce_tree_systems(draw, max_leaves: int = 6) -> SystemGraph:
    """reduce_tree() over single-output leaf stages, closed by testbench."""
    n = draw(st.integers(2, max_leaves))
    arity = draw(st.integers(2, 3))
    wire = _stage_wire(draw)
    leaf_latency = draw(st.integers(1, 6))
    node_latency = draw(st.integers(1, 6))
    leaves = [
        stage(f"leaf{i}", latency=leaf_latency, wire=wire)
        for i in range(n)
    ]
    design = reduce_tree(
        leaves,
        lambda level, index, fan_in: stage(
            f"red{level}_{index}",
            latency=node_latency,
            inputs=fan_in,
            wire=wire,
        ),
        arity=arity,
    )
    testbenched(design)
    return design.build(name="dsl_reduce_tree")


@st.composite
def dsl_ring_systems(draw, max_stages: int = 5) -> SystemGraph:
    """ring() of tapped stages, closed per-port (exact Z_k family)."""
    k = draw(st.integers(2, max_stages))
    hop = _stage_wire(draw)
    tap = _stage_wire(draw)
    latency = draw(st.integers(1, 6))
    tokens = draw(st.integers(1, 2))
    parts = [
        stage(
            f"st{i}",
            latency=latency,
            inputs=[("ring_in", hop), ("in", tap)],
            outputs=[("ring_out", hop), ("out", tap)],
        )
        for i in range(k)
    ]
    design = ring(parts, tokens=tokens, family="ring")
    testbenched(design)
    return design.build(name="dsl_ring")


@st.composite
def dsl_mesh_systems(draw, max_edge: int = 3) -> SystemGraph:
    """mesh() fabrics, open grid or wrapped torus, closed per-port."""
    rows = draw(st.integers(1, max_edge))
    cols = draw(st.integers(2 if rows == 1 else 1, max_edge))
    wrap = draw(st.booleans())
    design = mesh(
        rows,
        cols,
        latency=draw(st.integers(1, 4)),
        wire=_stage_wire(draw),
        wrap=wrap,
        tokens=draw(st.integers(1, 2)),
    )
    testbenched(design)
    return design.build(name="dsl_mesh")


@st.composite
def dsl_butterfly_systems(draw, max_bits: int = 3) -> SystemGraph:
    """butterfly() networks closed per-port (exact bit-flip families)."""
    bits = draw(st.integers(1, max_bits))
    design = butterfly(
        bits,
        latency=draw(st.integers(1, 4)),
        wire=_stage_wire(draw),
    )
    testbenched(design)
    return design.build(name="dsl_butterfly")


@st.composite
def dsl_rate_chains(draw, max_stages: int = 3) -> SdfGraph:
    """rate_chain() with small consistent rates (bounded expansion)."""
    n = draw(st.integers(1, max_stages))
    menu = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
    rates = [draw(st.sampled_from(menu)) for _ in range(n)]
    times = [draw(st.integers(1, 6)) for _ in range(n + 1)]
    return rate_chain(
        "hyp_chain",
        rates,
        execution_times=times,
        channel_latency=draw(st.integers(1, 4)),
    )


def dsl_combinator_systems() -> st.SearchStrategy[SystemGraph]:
    """A closed system from any combinator in the catalog."""
    return st.one_of(
        dsl_pipe_systems(),
        dsl_parallel_systems(),
        dsl_fanout_join_systems(),
        dsl_reduce_tree_systems(),
        dsl_ring_systems(),
        dsl_mesh_systems(),
        dsl_butterfly_systems(),
    )


@st.composite
def live_tmgs(
    draw,
    max_chains: int = 3,
    max_chain_length: int = 4,
    max_delay: int = 10,
) -> TimedMarkedGraph:
    """A random live TMG: token-carrying transition rings plus cross places.

    Construction: a few rings (each ring a cycle of transitions, with one
    token somewhere on it) connected by extra places that always carry at
    least one token, so no token-free cycle can arise.
    """
    tmg = TimedMarkedGraph("hyp")
    n_chains = draw(st.integers(1, max_chains))
    rings: list[list[str]] = []
    t_index = 0
    p_index = 0
    for c in range(n_chains):
        length = draw(st.integers(1, max_chain_length))
        ring = []
        for _ in range(length):
            name = f"t{t_index}"
            tmg.add_transition(name, delay=draw(st.integers(0, max_delay)))
            ring.append(name)
            t_index += 1
        token_at = draw(st.integers(0, length - 1))
        for i, producer in enumerate(ring):
            consumer = ring[(i + 1) % length]
            tmg.add_place(
                f"p{p_index}",
                producer,
                consumer,
                tokens=1 if i == token_at else 0,
            )
            p_index += 1
        rings.append(ring)
    # Cross links with >= 1 token each keep all mixed cycles live.
    n_cross = draw(st.integers(0, 2 * n_chains))
    all_transitions = [t for ring in rings for t in ring]
    for _ in range(n_cross):
        producer = all_transitions[draw(st.integers(0, len(all_transitions) - 1))]
        consumer = all_transitions[draw(st.integers(0, len(all_transitions) - 1))]
        tmg.add_place(
            f"p{p_index}",
            producer,
            consumer,
            tokens=draw(st.integers(1, 3)),
        )
        p_index += 1
    return tmg
