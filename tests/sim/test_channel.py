"""Unit tests for the reference simulator's channel state (rendezvous and
buffered)."""

import pytest

from repro.core import Channel
from repro.errors import SimulationError
from tests.sim.reference import ChannelState


def rendezvous(latency=3) -> ChannelState:
    return ChannelState(Channel("c", "p", "q", latency=latency))


def buffered(latency=3, capacity=2, tokens=0, payloads=()) -> ChannelState:
    return ChannelState(
        Channel("c", "p", "q", latency=latency, capacity=capacity,
                initial_tokens=tokens),
        initial_payloads=tuple(payloads),
    )


class TestRendezvous:
    def test_put_first_blocks(self):
        state = rendezvous()
        outcome = state.offer_put(5, "data")
        assert not outcome.complete
        assert state.waiting_put()

    def test_get_completes_pending_put(self):
        state = rendezvous(latency=3)
        state.offer_put(5, "data")
        outcome = state.offer_get(9)
        assert outcome.complete
        assert outcome.time == 12  # max(5, 9) + 3
        assert outcome.payload == "data"
        assert outcome.peer_wait == 4  # the producer waited 9 - 5

    def test_put_completes_pending_get(self):
        state = rendezvous(latency=2)
        state.offer_get(1)
        outcome = state.offer_put(6, 42)
        assert outcome.complete
        assert outcome.time == 8
        assert outcome.payload == 42
        assert outcome.peer_wait == 5

    def test_simultaneous_arrival_no_wait(self):
        state = rendezvous(latency=1)
        state.offer_get(4)
        outcome = state.offer_put(4, None)
        assert outcome.time == 5
        assert outcome.peer_wait == 0

    def test_fifo_pairing(self):
        state = rendezvous(latency=1)
        state.offer_get(0)
        state.offer_get(10)
        first = state.offer_put(2, "a")
        second = state.offer_put(3, "b")
        assert first.time == 3  # pairs with the get at 0
        assert second.time == 11  # pairs with the get at 10

    def test_transfer_count(self):
        state = rendezvous()
        state.offer_get(0)
        state.offer_put(0, None)
        assert state.transfers == 1

    def test_initial_payloads_rejected(self):
        with pytest.raises(SimulationError):
            ChannelState(Channel("c", "p", "q"), initial_payloads=("x",))


class TestBuffered:
    def test_put_takes_credit_immediately(self):
        state = buffered(latency=3, capacity=2)
        outcome = state.offer_put(4, "d")
        assert outcome.complete
        assert outcome.time == 7  # starts at 4, item visible at 7

    def test_put_blocks_without_credit(self):
        state = buffered(capacity=1)
        assert state.offer_put(0, "a").complete
        assert not state.offer_put(0, "b").complete
        assert state.waiting_put()

    def test_get_blocks_on_empty(self):
        state = buffered()
        assert not state.offer_get(0).complete
        assert state.waiting_get()

    def test_get_waits_for_item_time(self):
        state = buffered(latency=5, capacity=1)
        state.offer_put(0, "x")
        outcome = state.offer_get(1)
        assert outcome.complete
        assert outcome.time == 5
        assert outcome.payload == "x"

    def test_initial_tokens_served_first(self):
        state = buffered(capacity=2, tokens=2, payloads=("a", "b"))
        first = state.offer_get(3)
        assert first.complete and first.payload == "a" and first.time == 3
        second = state.offer_get(4)
        assert second.payload == "b"

    def test_get_releases_credit_for_blocked_put(self):
        state = buffered(latency=1, capacity=1, tokens=1, payloads=("old",))
        blocked = state.offer_put(0, "new")
        assert not blocked.complete
        got = state.offer_get(2)
        assert got.payload == "old"
        resumed = state.resolve_blocked_put()
        assert resumed is not None
        assert resumed.time == 2 + 1  # credit at 2, latency 1

    def test_resolve_blocked_get(self):
        state = buffered(latency=2, capacity=1)
        assert not state.offer_get(0).complete
        state.offer_put(1, "late")
        resumed = state.resolve_blocked_get()
        assert resumed is not None
        assert resumed.payload == "late"
        assert resumed.time == 3
        assert resumed.peer_wait == 3

    def test_resolve_without_blocked_returns_none(self):
        state = buffered()
        assert state.resolve_blocked_put() is None
        assert state.resolve_blocked_get() is None

    def test_too_many_initial_payloads_rejected(self):
        with pytest.raises(SimulationError):
            buffered(tokens=1, payloads=("a", "b"))

    def test_effective_capacity(self):
        assert buffered(capacity=2, tokens=0).effective_capacity == 2
        assert buffered(capacity=1, tokens=3).effective_capacity == 3


class TestPromotion:
    """capacity == 0 with initial tokens is a buffered FIFO, not a
    rendezvous — and the state must mirror the Channel's own verdict."""

    def test_zero_capacity_zero_tokens_is_rendezvous(self):
        state = ChannelState(Channel("c", "p", "q"))
        assert not state.buffered
        assert not state.offer_put(0, "x").complete  # blocks: rendezvous

    def test_zero_capacity_with_tokens_is_buffered(self):
        state = ChannelState(
            Channel("c", "p", "q", initial_tokens=2),
            initial_payloads=("a", "b"),
        )
        assert state.buffered
        assert state.effective_capacity == 2
        # The pre-loaded items serve gets with no producer in sight.
        assert state.offer_get(0).payload == "a"
        assert state.offer_get(1).payload == "b"

    def test_state_agrees_with_channel_properties(self):
        for capacity, tokens in ((0, 0), (0, 2), (3, 1), (2, 0)):
            channel = Channel("c", "p", "q", capacity=capacity,
                              initial_tokens=tokens)
            state = ChannelState(channel, initial_payloads=(None,) * tokens)
            assert state.buffered == channel.is_buffered
            if channel.is_buffered:
                assert state.effective_capacity == channel.effective_capacity
