"""Unit tests for the TimedMarkedGraph structure and token game."""

import random

import pytest

from repro.errors import ValidationError
from repro.tmg.event_graph import contract
from repro.tmg.graph import TimedMarkedGraph
from tests.tmg.enumeration import tmg_cycles


def ring(n: int = 3, tokens_at: int = 0, delay: int = 2) -> TimedMarkedGraph:
    tmg = TimedMarkedGraph("ring")
    for i in range(n):
        tmg.add_transition(f"t{i}", delay=delay)
    for i in range(n):
        tmg.add_place(f"p{i}", f"t{i}", f"t{(i + 1) % n}",
                      tokens=1 if i == tokens_at else 0)
    return tmg


class TestConstruction:
    def test_duplicate_transition_rejected(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("t")
        with pytest.raises(ValidationError):
            tmg.add_transition("t")

    def test_place_transition_namespace_shared(self):
        # Definition 1 requires P and T disjoint.
        tmg = TimedMarkedGraph()
        tmg.add_transition("x")
        tmg.add_transition("y")
        tmg.add_place("p", "x", "y")
        with pytest.raises(ValidationError):
            tmg.add_transition("p")
        with pytest.raises(ValidationError):
            tmg.add_place("x", "x", "y")

    def test_place_unknown_transition_rejected(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("t")
        with pytest.raises(ValidationError):
            tmg.add_place("p", "t", "ghost")

    def test_negative_delay_rejected(self):
        tmg = TimedMarkedGraph()
        with pytest.raises(ValidationError):
            tmg.add_transition("t", delay=-1)

    def test_negative_tokens_rejected(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("a")
        tmg.add_transition("b")
        with pytest.raises(ValidationError):
            tmg.add_place("p", "a", "b", tokens=-1)

    def test_validate_rejects_empty(self):
        with pytest.raises(ValidationError):
            TimedMarkedGraph().validate()

    def test_validate_rejects_disconnected_transition(self):
        tmg = ring()
        tmg.add_transition("orphan")
        with pytest.raises(ValidationError):
            tmg.validate()

    def test_validate_accepts_ring(self):
        ring().validate()


class TestTokenGame:
    def test_enabled_transition(self):
        tmg = ring(tokens_at=0)
        assert tmg.is_enabled("t1")  # p0 feeds t1
        assert not tmg.is_enabled("t0")
        assert tmg.enabled_transitions() == ("t1",)

    def test_fire_moves_token(self):
        tmg = ring(tokens_at=0)
        tmg.fire("t1")
        assert tmg.tokens("p0") == 0
        assert tmg.tokens("p1") == 1

    def test_fire_disabled_raises(self):
        tmg = ring(tokens_at=0)
        with pytest.raises(ValidationError):
            tmg.fire("t0")

    def test_total_tokens_invariant_on_ring(self):
        tmg = ring(n=4, tokens_at=2)
        for _ in range(10):
            (enabled,) = tmg.enabled_transitions()
            tmg.fire(enabled)
            assert tmg.total_tokens() == 1

    def test_reset_restores_initial_marking(self):
        tmg = ring(tokens_at=0)
        tmg.fire("t1")
        tmg.reset()
        assert tmg.marking == tmg.initial_marking()

    def test_set_marking(self):
        tmg = ring()
        tmg.set_marking({"p2": 5})
        assert tmg.tokens("p2") == 5

    def test_set_marking_rejects_negative(self):
        tmg = ring()
        with pytest.raises(ValidationError):
            tmg.set_marking({"p0": -1})

    def test_set_marking_rejects_unknown_place(self):
        tmg = ring()
        with pytest.raises(ValidationError):
            tmg.set_marking({"ghost": 1})

    def test_initial_marking_is_construction_time(self):
        tmg = ring(tokens_at=1)
        tmg.fire("t2")
        initial = tmg.initial_marking()
        assert initial["p1"] == 1
        assert initial["p2"] == 0


class TestCycles:
    def test_ring_has_single_cycle(self):
        cycles = list(tmg_cycles(ring(n=3)))
        assert len(cycles) == 1
        # alternating transition, place, ... of length 2n
        assert len(cycles[0]) == 6

    def test_parallel_places_collapse_to_fewest_tokens(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("a", delay=1)
        tmg.add_transition("b", delay=1)
        tmg.add_place("heavy", "a", "b", tokens=5)
        tmg.add_place("light", "a", "b", tokens=1)
        tmg.add_place("back", "b", "a", tokens=0)
        (cycle,) = tmg_cycles(tmg)
        assert "light" in cycle
        assert "heavy" not in cycle


def reference_contract(n, source, target, tokens):
    """:func:`contract` written out: per node, its kept edges in order of
    the first row between their endpoints, each the fewest-token row."""
    kept = {}  # (s, t) -> row, in first-row order
    for row, pair in enumerate(zip(source, target)):
        if pair not in kept or tokens[row] < tokens[kept[pair]]:
            kept[pair] = row
    rows = [row for u in range(n) for (s, _), row in kept.items() if s == u]
    start = [0]
    for u in range(n):
        start.append(start[-1] + sum(1 for s, _ in kept if s == u))
    return (
        start, [target[r] for r in rows], [tokens[r] for r in rows], rows
    )


@pytest.mark.parametrize("seed", range(20))
def test_contract_matches_reference(seed):
    # Few nodes and many rows, so that most seeds draw parallel places;
    # seed 0 draws none, which takes the duplicate-free path.
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    rows = rng.randint(0, 30) if seed else n
    source = [rng.randrange(n) for _ in range(rows)]
    target = [rng.randrange(n) for _ in range(rows)]
    if not seed:
        source, target = list(range(n)), [(u + 1) % n for u in range(n)]
    tokens = [rng.randint(0, 3) for _ in range(rows)]
    assert contract(n, source, target, tokens) == reference_contract(
        n, source, target, tokens
    )
