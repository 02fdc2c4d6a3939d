"""Property-based guarantees of Algorithm 1 on random systems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import analyze_system, deadlock_cycle
from repro.ordering import (
    channel_ordering,
    channel_ordering_with_labels,
    conservative_ordering,
)
from tests.strategies import layered_systems


@settings(max_examples=60, deadline=None)
@given(system=layered_systems())
def test_algorithm_output_is_always_deadlock_free(system):
    """The paper's central guarantee: Algorithm 1's ordering never
    deadlocks, on any live system."""
    ordering = channel_ordering(system)
    assert deadlock_cycle(system, ordering) is None


@settings(max_examples=60, deadline=None)
@given(system=layered_systems())
def test_algorithm_output_is_valid_permutation(system):
    channel_ordering(system).validate(system)


@settings(max_examples=40, deadline=None)
@given(system=layered_systems(feedback=False))
def test_labels_cover_every_channel_on_dags(system):
    outcome = channel_ordering_with_labels(system)
    for channel in system.channel_names:
        head = outcome.labels.head(channel)
        tail = outcome.labels.tail(channel)
        assert head[0] >= 0 and tail[0] >= 0


@settings(max_examples=40, deadline=None)
@given(system=layered_systems(feedback=False))
def test_forward_weights_nondecreasing_along_paths(system):
    """On DAGs, a channel's head weight strictly exceeds every head weight
    feeding its producer (weights accumulate latency along paths)."""
    outcome = channel_ordering_with_labels(system)
    for channel in system.channels:
        weight = outcome.labels.head(channel.name)[0]
        for upstream in system.input_channels(channel.producer):
            assert weight > outcome.labels.head(upstream)[0]


@settings(max_examples=40, deadline=None)
@given(system=layered_systems(), seed=st.integers(0, 100))
def test_algorithm_never_worse_than_deadlock(system, seed):
    """The ordered system always has a finite cycle time (never deadlocks),
    even when baselines do."""
    ordering = channel_ordering(system)
    perf = analyze_system(system, ordering)
    assert perf.cycle_time > 0


@settings(max_examples=30, deadline=None)
@given(system=layered_systems())
def test_algorithm_competitive_with_conservative(system):
    """Algorithm 1 stays within 2x of the conservative sweep baseline (it
    is a heuristic, but it must not pathologically serialize)."""
    algo = analyze_system(system, channel_ordering(system)).cycle_time
    conservative = analyze_system(
        system, conservative_ordering(system)
    ).cycle_time
    assert float(algo) <= 2 * float(conservative)


@settings(max_examples=25, deadline=None)
@given(system=layered_systems(max_layers=2, max_width=2, feedback=False))
def test_algorithm_near_exhaustive_optimum_on_small_dags(system):
    """On exhaustively searchable DAG systems (the labeling's designed
    domain) the heuristic stays within 2x of the true optimum — and is
    exactly optimal on the paper's example (see test_algorithm.py).  On
    feedback systems the labeling does not model cycle token counts, so
    no fixed bound holds; the competitiveness property above covers them.
    """
    from repro.ordering import exhaustive_search

    if system.order_space_size() > 3000:
        return
    best = exhaustive_search(system).best_cycle_time
    algo = analyze_system(system, channel_ordering(system)).cycle_time
    assert float(algo) <= 2.0 * float(best)
