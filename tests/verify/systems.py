"""Fixed systems shared by the verification tests and benchmarks."""

from repro.core import SystemBuilder


def buffered_pipeline(n_stages: int, capacity: int = 1):
    """src -> s0 -> ... -> s(n-1) -> snk with buffered channels.

    Buffered endpoints move independently, so the naive interleaving
    explodes while one canonical schedule suffices for deadlock
    detection — the reduction's showcase.
    """
    builder = SystemBuilder(f"bufpipe{n_stages}")
    builder.source("src", latency=1)
    names = [f"s{i}" for i in range(n_stages)]
    for name in names:
        builder.process(name, latency=1)
    builder.sink("snk", latency=1)
    chain = ["src"] + names + ["snk"]
    for i in range(len(chain) - 1):
        builder.channel(
            f"c{i}", chain[i], chain[i + 1], latency=1, capacity=capacity
        )
    return builder.build()


def ring_with_taps(k=8, capacity=2, tokens=1):
    """k-stage rotationally symmetric ring, each stage with src + snk.

    Channels are declared grouped by role (all in*, all ring*, all
    out*) so every stage's statement order is aligned with the rotation
    and the strict automorphism group contains Z_k.  Capacity-2 ring
    channels carrying one token keep many interleavings live at once.
    """
    b = SystemBuilder(f"ringtap{k}")
    for i in range(k):
        b.source(f"src{i}", latency=1)
        b.process(f"st{i}", latency=1)
        b.sink(f"snk{i}", latency=1)
    for i in range(k):
        b.channel(f"in{i}", f"src{i}", f"st{i}", capacity=1)
    for i in range(k):
        b.channel(
            f"ring{i}", f"st{i}", f"st{(i + 1) % k}",
            capacity=capacity, initial_tokens=tokens,
        )
    for i in range(k):
        b.channel(f"out{i}", f"st{i}", f"snk{i}", capacity=1)
    return b.build()
