"""System generators: the paper's motivating example and synthetic SoCs.

Two families matter for the reproduction:

* :func:`motivating_example` — the five-process system of Fig. 2/Fig. 4,
  with process and channel latencies reconstructed exactly from the worked
  labeling examples of Section 4 (see DESIGN.md §3).  The three named
  orderings discussed in the paper (deadlocking, deadlock-free-but-
  suboptimal, optimal) are provided alongside.

* :func:`synthetic_soc` — the scalability-benchmark family of Section 6:
  random layered systems "with characteristics similar to those of the
  MPEG-2, including the presence of feedback loops and reconvergent
  paths", scaling to 10,000 processes and 15,000 channels.

Every generator except :func:`synthetic_soc` builds through the
composition layer (:class:`repro.dsl.design.Design`), using its
node-level ``connect`` escape hatch so the historical process/channel
names and declaration orders — and therefore every pinned
``structural_hash`` — are preserved bit for bit.  Channel latencies are
expressed as derived :class:`~repro.dsl.wire.Wire` metadata
(:func:`~repro.dsl.wire.wire_for_latency`), and generators that
replicate structure (:func:`fork_join`) declare the replication as a
:class:`~repro.core.families.DeclaredFamily` for the symmetry layer to
verify and spend.

:func:`synthetic_soc` declares no ports, wires or families, so it fills a
:class:`~repro.core.system.SystemGraph` directly and validates once; at
the scalability study's 10,000 processes, a wire per channel and a second
copy of every node and edge would dominate the cost of building it.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING

from repro.core.system import (
    Channel,
    ChannelOrdering,
    Process,
    ProcessKind,
    SystemGraph,
)
from repro.core.validation import validate_system

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsl.design import Design
    from repro.dsl.wire import Wire


def _design(name: str) -> "Design":
    # Deferred: repro.core's package __init__ imports this module, and the
    # composition layer imports repro.core submodules — binding at call
    # time keeps both package initializations cycle-free.
    from repro.dsl.design import Design

    return Design(name)


def _latency_wire(latency: int, initial_tokens: int = 0) -> "Wire":
    from repro.dsl.wire import wire_for_latency

    return wire_for_latency(latency, tokens=initial_tokens)


# ---------------------------------------------------------------------------
# Motivating example (Fig. 2 / Fig. 4)
# ---------------------------------------------------------------------------

#: Process computation latencies of Fig. 4(a), reconstructed from the
#: forward/backward labeling equations of Section 4.
MOTIVATING_PROCESS_LATENCIES = {
    "Psrc": 1,
    "P2": 5,
    "P3": 2,
    "P4": 1,
    "P5": 2,
    "P6": 2,
    "Psnk": 1,
}

#: Channel latencies of Fig. 4(a): ``name -> (producer, consumer, latency)``.
MOTIVATING_CHANNELS = {
    "a": ("Psrc", "P2", 2),
    "b": ("P2", "P3", 1),
    "c": ("P3", "P4", 2),
    "d": ("P2", "P6", 3),
    "e": ("P4", "P6", 1),
    "f": ("P2", "P5", 1),
    "g": ("P5", "P6", 2),
    "h": ("P6", "Psnk", 1),
}


def motivating_example() -> SystemGraph:
    """The system of Fig. 2(a) with the latencies of Fig. 4(a).

    Channels are declared in the order of Listing 1 / Section 2, so the
    declaration ordering has P2 writing (b, d, f) — the order that, combined
    with P6 reading (g, d, e), deadlocks.
    """
    design = _design("motivating")
    design.source("Psrc", latency=MOTIVATING_PROCESS_LATENCIES["Psrc"])
    for name in ("P2", "P3", "P4", "P5", "P6"):
        design.worker(name, latency=MOTIVATING_PROCESS_LATENCIES[name])
    design.sink("Psnk", latency=MOTIVATING_PROCESS_LATENCIES["Psnk"])
    for cname, (producer, consumer, latency) in MOTIVATING_CHANNELS.items():
        design.connect(cname, producer, consumer, wire=_latency_wire(latency))
    return design.build()


def motivating_deadlock_ordering(system: SystemGraph) -> ChannelOrdering:
    """The specification of Section 2 that deadlocks.

    P2 writes (b, d, f) as in Listing 1 while P6 reads from P5 first, then
    P2, then P4 — i.e. gets (g, d, e).  P2 blocks on d, P6 blocks on g, P5
    blocks on f: a circular wait.
    """
    return ChannelOrdering.from_orders(
        system,
        gets={"P6": ("g", "d", "e")},
        puts={"P2": ("b", "d", "f")},
    )


def motivating_suboptimal_ordering(system: SystemGraph) -> ChannelOrdering:
    """Section 2's hand-made deadlock-free reordering (cycle time 20).

    P2 writes f before b before d; P6 reads e before g before d.  Live, but
    serializes processes that could run concurrently: throughput 0.05.
    """
    return ChannelOrdering.from_orders(
        system,
        gets={"P6": ("e", "g", "d")},
        puts={"P2": ("f", "b", "d")},
    )


def motivating_optimal_ordering(system: SystemGraph) -> ChannelOrdering:
    """The optimum found by Algorithm 1 (cycle time 12, 40% better).

    Per the Final Ordering worked example: P2's puts sorted by descending
    tail weight (b:16, f:13, d:10) and P6's gets by ascending head weight
    (d:13, g:17, e:19).
    """
    return ChannelOrdering.from_orders(
        system,
        gets={"P6": ("d", "g", "e")},
        puts={"P2": ("b", "f", "d")},
    )


# ---------------------------------------------------------------------------
# Simple parametric families
# ---------------------------------------------------------------------------

def pipeline(
    n_stages: int,
    process_latency: int = 4,
    channel_latency: int = 1,
) -> SystemGraph:
    """A linear pipeline: source → stage0 → … → stage(n-1) → sink."""
    if n_stages < 1:
        raise ValueError("pipeline needs at least one stage")
    design = _design(f"pipeline{n_stages}")
    design.source("src")
    for i in range(n_stages):
        design.worker(f"stage{i}", latency=process_latency)
    design.sink("snk")
    names = ["src"] + [f"stage{i}" for i in range(n_stages)] + ["snk"]
    for i, (producer, consumer) in enumerate(zip(names, names[1:])):
        design.connect(
            f"c{i}", producer, consumer, wire=_latency_wire(channel_latency)
        )
    return design.build()


def fork_join(
    n_branches: int,
    branch_latencies: tuple[int, ...] | None = None,
    channel_latency: int = 1,
) -> SystemGraph:
    """A reconvergent fork/join: src → fork → {branch_i} → join → snk.

    The classic shape on which statement order matters: the join's get
    order should prioritize the branch whose path is longest.

    The branches are declared as an interchangeable family.  The shared
    fork and join serialize their statement orders, so the family holds
    up to statement reordering (the ERM702 equivalence) — which is
    exactly the claim ERM701 reports and the symmetry layer verifies.
    """
    if n_branches < 2:
        raise ValueError("fork/join needs at least two branches")
    latencies = branch_latencies or tuple(2 + i for i in range(n_branches))
    if len(latencies) != n_branches:
        raise ValueError("one latency per branch required")
    design = _design(f"forkjoin{n_branches}")
    design.source("src")
    design.worker("fork", latency=1)
    for i, latency in enumerate(latencies):
        design.worker(f"branch{i}", latency=latency)
    design.worker("join", latency=1)
    design.sink("snk")
    hop = _latency_wire(channel_latency)
    design.connect("c_in", "src", "fork", wire=hop)
    for i in range(n_branches):
        design.connect(f"c_up{i}", "fork", f"branch{i}", wire=hop)
        design.connect(f"c_dn{i}", f"branch{i}", "join", wire=hop)
    design.connect("c_out", "join", "snk", wire=hop)
    design.declare_family(
        "branches",
        "interchangeable",
        [[f"branch{i}"] for i in range(n_branches)],
        [[f"c_up{i}", f"c_dn{i}"] for i in range(n_branches)],
    )
    return design.build()


def ring_soc(
    n_stages: int,
    process_latency: int = 4,
    channel_latency: int = 1,
    initial_tokens: int = 1,
) -> SystemGraph:
    """A ring of workers closed by one pre-loaded channel.

    The minimal feedback-loop topology: src → w0 → w1 → … → w(n-1) → w0,
    with the closing channel carrying ``initial_tokens`` (it must, or no
    ordering keeps the ring live).  The sink taps the last worker.

    No family is declared: the single inject/drain testbench pins the
    ring (rotations are not automorphisms of this closed system) — for a
    rotation-symmetric ring use :func:`repro.dsl.combinators.ring` with per-part
    testbenches.
    """
    if n_stages < 2:
        raise ValueError("a ring needs at least two workers")
    if initial_tokens < 1:
        raise ValueError("the closing channel needs at least one token")
    design = _design(f"ring{n_stages}")
    design.source("src")
    for i in range(n_stages):
        design.worker(f"w{i}", latency=process_latency)
    design.sink("snk")
    hop = _latency_wire(channel_latency)
    design.connect("inject", "src", "w0", wire=hop)
    for i in range(n_stages - 1):
        design.connect(f"hop{i}", f"w{i}", f"w{i + 1}", wire=hop)
    design.connect(
        "close",
        f"w{n_stages - 1}",
        "w0",
        wire=_latency_wire(channel_latency, initial_tokens=initial_tokens),
    )
    design.connect("drain", f"w{n_stages - 1}", "snk", wire=hop)
    return design.build()


def mesh_soc(
    rows: int,
    cols: int,
    process_latency: int = 4,
    channel_latency: int = 1,
) -> SystemGraph:
    """A rows×cols mesh of workers with eastward and southward channels.

    The classic NoC-like accelerator grid (systolic-array shape): data
    enters at the north-west corner, flows east and south, and drains at
    the south-east corner.  Heavily reconvergent — every interior node
    joins two paths — which makes it a good stress case for the ordering
    algorithm.

    No family is declared: the corner entry/exit pins every node (even
    the transpose fails exactness — the interleaved east-then-south put
    order gives the grid a chirality).  For a translation-symmetric
    fabric use :func:`repro.dsl.mesh` with ``wrap=True``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("mesh needs at least one row and one column")
    if rows * cols < 2:
        raise ValueError("mesh needs at least two workers")
    design = _design(f"mesh{rows}x{cols}")
    design.source("src")
    for r in range(rows):
        for c in range(cols):
            design.worker(f"n{r}_{c}", latency=process_latency)
    design.sink("snk")
    hop = _latency_wire(channel_latency)
    design.connect("inject", "src", "n0_0", wire=hop)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                design.connect(
                    f"e{r}_{c}", f"n{r}_{c}", f"n{r}_{c + 1}", wire=hop
                )
            if r + 1 < rows:
                design.connect(
                    f"s{r}_{c}", f"n{r}_{c}", f"n{r + 1}_{c}", wire=hop
                )
    design.connect("drain", f"n{rows - 1}_{cols - 1}", "snk", wire=hop)
    # Edge nodes with no outgoing mesh link other than toward the sink
    # corner already drain through the mesh; nothing else to add.
    return design.build()


# ---------------------------------------------------------------------------
# Synthetic SoC benchmarks (scalability study)
# ---------------------------------------------------------------------------

def synthetic_soc(
    n_processes: int,
    n_channels: int | None = None,
    seed: int = 0,
    feedback_fraction: float = 0.02,
    min_process_latency: int = 1,
    max_process_latency: int = 64,
    min_channel_latency: int = 1,
    max_channel_latency: int = 16,
    layer_width: int | None = None,
    rng: random.Random | None = None,
) -> SystemGraph:
    """Generate a random SoC with reconvergent paths and feedback loops.

    The construction follows the structure of real stream-processing SoCs
    (and of the paper's MPEG-2 case study):

    1. workers are arranged in layers (a layered DAG), each worker reading
       from at least one worker of an earlier layer — this yields the base
       connectivity and guarantees liveness of the skeleton;
    2. extra *reconvergent* channels are added between randomly chosen
       earlier→later workers until the channel budget is met — these create
       the reconvergent paths on which ordering matters;
    3. a small fraction of *feedback* channels are added later→earlier;
       each carries one initial token (pre-loaded data, e.g. an initialized
       frame store), which is what makes a feedback loop live in a
       rendezvous system;
    4. one testbench source feeds the first layer and one sink drains every
       worker with no forward consumer.

    Args:
        n_processes: Number of worker processes (the paper scales to 10,000).
        n_channels: Total worker-to-worker channel budget, testbench links
            excluded.  Defaults to ``1.5 * n_processes`` (the paper's 15,000
            channels for 10,000 processes).
        seed: RNG seed; generation is deterministic given all arguments.
        feedback_fraction: Fraction of the channel budget realized as
            feedback channels.
        layer_width: Target workers per layer (default ``max(2, sqrt(n))``).
        rng: Explicit random stream to draw from.  When given it is the
            *only* randomness source (``seed`` is ignored), so callers
            composing several generators can thread one seeded
            ``random.Random`` through all of them and stay reproducible
            end to end.  Every draw goes through this single stream —
            there is no hidden module-global randomness.
    """
    if n_processes < 2:
        raise ValueError("synthetic SoC needs at least two workers")
    if rng is None:
        rng = random.Random(seed)
    budget = n_channels if n_channels is not None else int(round(1.5 * n_processes))
    min_budget = n_processes - 1  # the layered skeleton needs this many
    budget = max(budget, min_budget)

    width = layer_width or max(2, int(round(n_processes**0.5)))
    layers: list[list[str]] = []
    remaining = n_processes
    index = 0
    while remaining > 0:
        take = min(remaining, max(1, int(rng.gauss(width, width / 3))))
        layers.append([f"p{index + i}" for i in range(take)])
        index += take
        remaining -= take

    system = SystemGraph(f"soc{n_processes}x{budget}")
    system.add_process(Process("Psrc", latency=1, kind=ProcessKind.SOURCE))
    for layer in layers:
        for name in layer:
            latency = rng.randint(min_process_latency, max_process_latency)
            system.add_process(Process(name, latency=latency))
    system.add_process(Process("Psnk", latency=1, kind=ProcessKind.SINK))

    n_feedback = int(budget * feedback_fraction)
    n_skeleton = n_processes - len(layers[0])
    n_extra = max(0, budget - n_skeleton - n_feedback)

    channel_names = (f"ch{i}" for i in itertools.count())
    existing_pairs: set[tuple[str, str]] = set()

    def add(producer: str, consumer: str, initial_tokens: int = 0) -> None:
        latency = rng.randint(min_channel_latency, max_channel_latency)
        name = next(channel_names)
        system.add_channel(
            Channel(name, producer, consumer, latency, initial_tokens=initial_tokens)
        )
        existing_pairs.add((producer, consumer))

    # 1. Layered skeleton: every worker past layer 0 reads from an earlier
    #    layer.
    for depth, layer in enumerate(layers[1:], start=1):
        for name in layer:
            producer_layer = layers[rng.randrange(depth)]
            add(rng.choice(producer_layer), name)

    # 2. Reconvergent extra channels (earlier layer -> strictly later layer).
    flat = [(depth, name) for depth, layer in enumerate(layers) for name in layer]
    attempts = 0
    added = 0
    while added < n_extra and attempts < 20 * n_extra + 100:
        attempts += 1
        (d1, u), (d2, v) = rng.sample(flat, 2)
        if d1 == d2:
            continue
        if d1 > d2:
            (d1, u), (d2, v) = (d2, v), (d1, u)
        if (u, v) in existing_pairs:
            continue
        add(u, v)
        added += 1

    # 3. Feedback channels (later layer -> strictly earlier layer), carrying
    #    one initial token each so the loop is live.
    attempts = 0
    added = 0
    while added < n_feedback and attempts < 20 * n_feedback + 100:
        attempts += 1
        (d1, u), (d2, v) = rng.sample(flat, 2)
        if d1 <= d2:
            continue
        if (u, v) in existing_pairs:
            continue
        add(u, v, initial_tokens=1)
        added += 1

    # 4. Testbench links: the source feeds every layer-0 worker; every
    #    worker that cannot reach the sink (no outputs, or outputs only on
    #    feedback channels into an undrained cluster) drains into it.
    for name in layers[0]:
        add("Psrc", name)
    for depth, name in flat:
        if not system.output_channels(name):
            add(name, "Psnk")
    for name in _not_coreachable(system, "Psnk"):
        add(name, "Psnk")
    # Workers that ended up with no input (possible only in layer 0 if the
    # source loop above missed them — it cannot, but keep the guard cheap):
    for depth, name in flat:
        if not system.input_channels(name):
            add("Psrc", name)

    validate_system(system)
    return system


def _not_coreachable(system: SystemGraph, sink: str) -> list[str]:
    """Worker names with no directed path to ``sink``."""
    predecessors: dict[str, list[str]] = {}
    for channel in system.channels:
        predecessors.setdefault(channel.consumer, []).append(channel.producer)
    reached = {sink}
    frontier = [sink]
    while frontier:
        for producer in predecessors.get(frontier.pop(), ()):
            if producer not in reached:
                reached.add(producer)
                frontier.append(producer)
    return [p.name for p in system.workers() if p.name not in reached]
