"""Determinism properties of :func:`repro.ir.lower`.

The structural hash is the IR's content address (certificates, ``ermes
ir``), so it must be byte-stable across processes, across repeated
lowerings, and — the property dict-based renderings historically get
wrong — across the order in which a semantically identical system was
constructed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelOrdering
from repro.core.system import SystemGraph
from repro.ir import clear_lowering_cache, lower
from tests.strategies import layered_systems

#: Golden digest of the motivating example under declaration order.  The
#: rendering is versioned (``ir:v1``); an intentional schema change must
#: bump the version tag and this digest together, an accidental one fails
#: here.
MOTIVATING_SHA256 = (
    "e58609bdcd544c1b07ddbd91a9f196f4e35a20347339da124c6079dc4281dcdf"
)


def _shuffled_copy(system: SystemGraph, perm_seed: int) -> SystemGraph:
    """The same design, declared in a different order."""
    import random

    rng = random.Random(perm_seed)
    processes = list(system.processes)
    channels = list(system.channels)
    rng.shuffle(processes)
    rng.shuffle(channels)
    clone = SystemGraph(system.name)
    for process in processes:
        clone.add_process(process)
    for channel in channels:
        clone.add_channel(channel)
    return clone


def test_golden_hash_of_the_motivating_example(motivating):
    assert (
        lower(motivating).structural_hash == MOTIVATING_SHA256
    )


@settings(max_examples=40, deadline=None)
@given(system=layered_systems())
def test_repeated_lowering_is_byte_identical(system):
    ordering = ChannelOrdering.declaration_order(system)
    first = lower(system, ordering)
    clear_lowering_cache()
    second = lower(system, ordering)
    assert first.structural_hash == second.structural_hash
    assert first == second


@settings(max_examples=40, deadline=None)
@given(system=layered_systems(), perm_seed=st.integers(0, 1000))
def test_hash_is_declaration_order_independent(system, perm_seed):
    """Same content, different insertion order => same digest.

    The *tables* may differ (ids follow each system's own declaration
    order — that is what keeps TMG construction bit-identical for its
    caller), but the content address must not.
    """
    ordering = ChannelOrdering.declaration_order(system)
    shuffled = _shuffled_copy(system, perm_seed)
    assert lower(system, ordering).structural_hash == (
        lower(shuffled, ordering).structural_hash
    )


@settings(max_examples=40, deadline=None)
@given(system=layered_systems(), scale=st.integers(2, 7))
def test_hash_ignores_process_latencies(system, scale):
    """One IR serves every DSE latency selection."""
    ordering = ChannelOrdering.declaration_order(system)
    scaled = system.with_process_latencies(
        {p.name: p.latency * scale for p in system.processes}
    )
    assert lower(system, ordering).structural_hash == (
        lower(scaled, ordering).structural_hash
    )


@settings(max_examples=40, deadline=None)
@given(system=layered_systems())
def test_memo_hit_preserves_declaration_order_tables(system):
    """A cache hit must return tables matching the caller's ids."""
    ordering = ChannelOrdering.declaration_order(system)
    clear_lowering_cache()
    ir = lower(system, ordering)
    again = lower(system, ordering)
    assert again is ir
    assert again.processes == system.process_names
    assert again.channels == system.channel_names
