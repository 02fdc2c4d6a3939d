"""The stubborn-set reduction: soundness invariants, the singleton rule
checked against the name-keyed reference, agreement with the naive
search, and actual savings."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import fork_join
from repro.ordering import channel_ordering
from repro.verify import (
    TransitionSystem,
    Verdict,
    check_deadlock,
    replay_witness,
    stubborn_set,
)
from repro.workloads import generate
from tests.strategies import (
    layered_systems,
    random_orderings,
    small_replicated_families,
)
from tests.verify import stubborn_reference as reference
from tests.verify.systems import buffered_pipeline, ring_with_taps


class TestInvariants:
    def exhaustive_states(self, system):
        """Every reachable state, via the naive (unreduced) relation."""
        ts = TransitionSystem(system, None)
        seen = {ts.initial_state()}
        frontier = [ts.initial_state()]
        while frontier:
            state = frontier.pop()
            for action in ts.enabled(state):
                successor = ts.successor(state, action)
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return ts, seen

    def test_stubborn_set_is_a_nonempty_subset_of_enabled(self):
        for system in (fork_join(3), buffered_pipeline(3)):
            ts, states = self.exhaustive_states(system)
            for state in states:
                enabled = ts.enabled(state)
                if not enabled:
                    continue
                stubborn = stubborn_set(ts, state, enabled)
                assert stubborn
                assert set(stubborn) <= set(enabled)

    def test_stubborn_set_is_deterministic(self):
        ts, states = self.exhaustive_states(buffered_pipeline(3))
        for state in states:
            enabled = ts.enabled(state)
            if not enabled:
                continue
            assert stubborn_set(ts, state, enabled) == stubborn_set(
                ts, state, enabled
            )


def bfs_states(ts, limit=None, por=False):
    """Reachable states in BFS order, the first ``limit`` of them; with
    ``por``, the states the reduced search of ``check_deadlock`` visits."""
    initial = ts.initial_state()
    seen = {initial}
    order = []
    frontier = deque([initial])
    while frontier and (limit is None or len(order) < limit):
        state = frontier.popleft()
        order.append(state)
        enabled = ts.enabled(state)
        if por and len(enabled) > 1:
            enabled = stubborn_set(ts, state, enabled)
        for action in enabled:
            successor = ts.successor(state, action)
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return order


class TestAgainstReference:
    """The integer tables agree with the name-keyed reference, and the
    stubborn set is the singleton of the smallest enabled id, state by
    state."""

    def assert_agrees(self, ts, states):
        for state in states:
            enabled = ts.enabled(state)
            decoded = tuple(ts.action(a) for a in enabled)
            assert decoded == reference.enabled_actions(ts, state)
            if enabled:
                assert stubborn_set(ts, state, enabled) == (min(enabled),)

    def test_every_reachable_state_of_small_systems(
        self, motivating, deadlock_ordering
    ):
        for system, ordering in (
            (fork_join(3), None),
            (buffered_pipeline(3), None),
            (motivating, deadlock_ordering),
        ):
            ts = TransitionSystem(system, ordering)
            self.assert_agrees(ts, bfs_states(ts))

    def test_bfs_prefix_of_a_generated_soc(self):
        """Naive BFS prefix plus the reduced walks under both
        orderings."""
        system = generate("bursty-soc", seed=0, size=16).system
        ts = TransitionSystem(system)
        self.assert_agrees(ts, bfs_states(ts, limit=2_000))
        for ordering in (None, channel_ordering(system)):
            ts = TransitionSystem(system, ordering)
            self.assert_agrees(ts, bfs_states(ts, limit=2_000, por=True))

    def test_action_ids_follow_channel_then_kind(self):
        ts = TransitionSystem(buffered_pipeline(2, capacity=2))
        actions = [ts.action(i) for i in range(ts.n_actions)]
        assert actions == sorted(
            actions, key=lambda a: (a.channel, a.kind.value)
        )
        assert all(ts.action_id(a) == i for i, a in enumerate(actions))


class TestReduction:
    def test_big_savings_on_buffered_pipelines(self):
        """The acceptance ratio: >= 5x fewer states than naive on a
        6-stage pipeline (the benchmark tracks the exact numbers)."""
        system = buffered_pipeline(6)
        reduced = check_deadlock(system)
        naive = check_deadlock(system, por=False)
        assert reduced.verdict is naive.verdict is Verdict.DEADLOCK_FREE
        assert naive.states_explored >= 5 * reduced.states_explored

    def test_same_verdict_across_many_topologies(self, motivating,
                                                 deadlock_ordering):
        cases = [
            (fork_join(4), None),
            (buffered_pipeline(4), None),
            (motivating, deadlock_ordering),
        ]
        for system, ordering in cases:
            reduced = check_deadlock(system, ordering)
            naive = check_deadlock(system, ordering, por=False)
            assert reduced.verdict is naive.verdict


#: Cap on the naive leg of the POR-vs-naive properties: they compare only
#: systems whose full interleaving the naive search enumerates within it.
NAIVE_BUDGET_STATES = 20_000


def assert_one_firing_per_live_state(result):
    """A POR run fires one transition per expanded state that is not dead:
    every expanded state but a final deadlocked one."""
    assert result.transitions_fired == (
        result.states_explored - result.deadlocked
    )


def assert_por_matches_naive(system, ordering):
    naive = check_deadlock(
        system, ordering, por=False, budget_states=NAIVE_BUDGET_STATES
    )
    if not naive.conclusive:
        return
    reduced = check_deadlock(system, ordering)
    assert reduced.verdict is naive.verdict
    assert_one_firing_per_live_state(reduced)
    if reduced.deadlocked:
        # Keller's theorem: every maximal run of a persistent system
        # reaches the deadlock in the same number of steps, so the walk's
        # witness is as short as the naive BFS's.
        assert len(reduced.witness.schedule) == len(naive.witness.schedule)
        replay_witness(system, ordering, reduced.witness)


class TestSoundness:
    """The singleton walk decides what the naive search decides."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), system=layered_systems(feedback=False))
    def test_por_agrees_with_naive_on_random_orderings(self, data, system):
        assert_por_matches_naive(system, data.draw(random_orderings(system)))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), system=small_replicated_families())
    def test_por_agrees_with_naive_on_replicated_families(self, data, system):
        assert_por_matches_naive(system, None)
        assert_por_matches_naive(system, data.draw(random_orderings(system)))

    def test_one_firing_per_live_state(self, motivating, deadlock_ordering):
        for system, ordering in (
            (fork_join(3), None),
            (buffered_pipeline(4), None),
            (ring_with_taps(8), None),
            (motivating, None),
            (motivating, deadlock_ordering),
        ):
            result = check_deadlock(system, ordering)
            assert result.conclusive
            assert_one_firing_per_live_state(result)


class TestRegressionPins:
    def test_bursty_soc_s24_is_decided_within_10k_states(self):
        """A closure-based reduction stopped here at the budget,
        INCONCLUSIVE."""
        system = generate("bursty-soc", seed=0, size=24).system
        result = check_deadlock(
            system, channel_ordering(system), por=True, budget_states=10_000
        )
        assert result.verdict is Verdict.DEADLOCK_FREE

    @pytest.mark.parametrize("stages, bound", [(8, 200), (12, 400)])
    def test_symmetric_ring_state_bound(self, stages, bound):
        """Measured 159 and 334 states (a closure-based reduction
        explored 681 and 1,549)."""
        result = check_deadlock(ring_with_taps(stages), por=True)
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.states_explored <= bound
