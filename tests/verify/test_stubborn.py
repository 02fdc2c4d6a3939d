"""The stubborn-set reduction: soundness invariants, agreement with the
name-keyed reference, and actual savings."""

from collections import deque

from repro.core import SystemBuilder
from repro.core.generators import fork_join
from repro.ordering import channel_ordering
from repro.verify import (
    TransitionSystem,
    Verdict,
    check_deadlock,
    stubborn_set,
)
from repro.workloads import generate
from tests.verify import stubborn_reference as reference


def buffered_pipeline(n_stages: int, capacity: int = 1):
    """src -> s0 -> ... -> s(n-1) -> snk with buffered inner channels.

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
    """The integer tables and the bounded closure agree with the
    name-keyed reference algorithm, state by state."""

    def assert_agrees(self, ts, states):
        for state in states:
            enabled = ts.enabled(state)
            decoded = tuple(ts.action(a) for a in enabled)
            assert decoded == reference.enabled_actions(ts, state)
            if len(enabled) > 1:
                chosen = stubborn_set(ts, state, enabled)
                assert tuple(ts.action(a) for a in chosen) == (
                    reference.stubborn_set(ts, state, decoded)
                )

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
        """Naive BFS prefix plus the reduced searches under both
        orderings: the latter reach states whose stubborn sets are not
        singletons, where the closure bound prunes seeds."""
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
