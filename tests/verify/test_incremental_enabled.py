"""The plain POR walk's incremental enabled set.

:func:`repro.verify.checker.check_deadlock` without the symmetry quotient
derives each successor's enabled ids from its predecessor's
(:meth:`TransitionSystem.enabled_after`), rechecking only the actions a
firing can touch.  These tests check that set against the full rescan
:meth:`TransitionSystem.enabled` at every state of every POR walk, after
every enabled action, and check the search itself against a walk that
rescans: verdicts, state and transition counts, pruned interleavings and
witness schedules.
"""

import glob

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChannelOrdering,
    load_system,
    motivating_deadlock_ordering,
    motivating_example,
)
from repro.ordering import channel_ordering
from repro.verify import Verdict, check_deadlock
from repro.verify.semantics import TransitionSystem
from repro.workloads import FAMILIES, generate
from tests.strategies import layered_systems, random_orderings
from tests.verify.systems import buffered_pipeline, ring_with_taps

SHIPPED = sorted(
    path
    for path in glob.glob("examples/designs/*.json")
    if not path.endswith(".ordering.json")
)


def _configurations():
    """Shipped designs and the generated families (4 seeds each) under
    both orderings, plus buffered pipelines and pre-loaded rings."""
    systems = [(path, load_system(path)) for path in SHIPPED] + [
        (f"{family}-seed{seed}", generate(family, seed=seed).system)
        for family in sorted(FAMILIES)
        for seed in range(4)
    ] + [
        ("bufpipe4", buffered_pipeline(4)),
        ("bufpipe3-cap3", buffered_pipeline(3, capacity=3)),
        ("ring4", ring_with_taps(4)),
        ("ring6-cap3-tokens2", ring_with_taps(6, capacity=3, tokens=2)),
    ]
    configurations = []
    for name, system in systems:
        for label, ordering in (
            ("declared", ChannelOrdering.declaration_order(system)),
            ("algorithm1", channel_ordering(system)),
        ):
            configurations.append(
                pytest.param(system, ordering, id=f"{name}-{label}")
            )
    motivating = motivating_example()
    configurations.append(pytest.param(
        motivating, motivating_deadlock_ordering(motivating),
        id="motivating-listing1",
    ))
    return configurations


CONFIGURATIONS = _configurations()


def _rescanning_walk(ts):
    """The POR walk with every enabled set rescanned: per state, the
    enabled ids; the walk's schedule; and the final state."""
    state = ts.initial_state()
    seen = {state}
    trail, schedule = [], []
    while True:
        enabled = ts.enabled(state)
        trail.append((state, enabled))
        if not enabled:
            return trail, schedule, state
        schedule.append(enabled[0])
        state = ts.successor(state, enabled[0])
        if state in seen:
            return trail, schedule, None
        seen.add(state)


def _assert_incremental_matches(ts):
    """At every state of the walk, the set derived after each enabled
    action equals the successor's rescan."""
    trail, _, _ = _rescanning_walk(ts)
    for state, enabled in trail:
        for action in enabled:
            successor = ts.successor(state, action)
            assert ts.enabled_after(enabled, action, successor) == ts.enabled(
                successor
            )


@pytest.mark.parametrize("system, ordering", CONFIGURATIONS)
def test_incremental_set_equals_the_rescan(system, ordering):
    _assert_incremental_matches(TransitionSystem(system, ordering))


@pytest.mark.parametrize("system, ordering", CONFIGURATIONS)
def test_search_matches_the_rescanning_walk(system, ordering):
    """Verdict, counts and witness schedule of ``check_deadlock`` are those
    of the walk that rescans every state."""
    ts = TransitionSystem(system, ordering)
    trail, schedule, dead = _rescanning_walk(ts)
    result = check_deadlock(system, ordering)
    assert result.states_explored == len(trail)
    assert result.transitions_fired == len(schedule)
    assert result.por_pruned == sum(
        max(len(enabled) - 1, 0) for _, enabled in trail
    )
    if dead is not None and ts.is_deadlock(dead):
        assert result.verdict is Verdict.DEADLOCKED
        assert result.witness.schedule == tuple(map(ts.action, schedule))
    else:
        assert result.verdict is Verdict.DEADLOCK_FREE


def test_search_feeds_the_derived_sets(monkeypatch):
    """Inside the search, every derived set equals the rescan of its state."""
    derive = TransitionSystem.enabled_after
    checked = []

    def checked_derive(self, enabled, action, state):
        derived = derive(self, enabled, action, state)
        assert derived == self.enabled(state)
        checked.append(state)
        return derived

    monkeypatch.setattr(TransitionSystem, "enabled_after", checked_derive)
    system = generate("bursty-soc", seed=0, size=24).system
    result = check_deadlock(system, channel_ordering(system), budget_states=10_000)
    assert result.verdict is Verdict.DEADLOCK_FREE
    assert len(checked) == result.states_explored - 1


@settings(max_examples=40, deadline=None)
@given(data=st.data(), system=layered_systems())
def test_random_orderings_and_capacities(data, system):
    channels = [c.name for c in system.channels]
    capacities = data.draw(st.dictionaries(
        st.sampled_from(channels), st.integers(1, 3), max_size=len(channels)
    ))
    system = system.with_channel_capacities(capacities)
    ordering = data.draw(random_orderings(system))
    _assert_incremental_matches(TransitionSystem(system, ordering))
