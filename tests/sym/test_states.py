"""State canonicalization: soundness, minimality, tier selection."""

import random

from repro.sym import EXACT, ORDER_RELAXED, analyze_symmetry
from repro.sym.states import (
    StateSymmetry,
    _BlockStrategy,
    _EnumStrategy,
)
from repro.verify.semantics import TransitionSystem
from tests.sym.conftest import build_lanes


def _ts(system):
    return TransitionSystem(system)


def _reachable_sample(ts, limit=200):
    """BFS sample of reachable states."""
    initial = ts.initial_state()
    seen = {initial}
    frontier = [initial]
    while frontier and len(seen) < limit:
        state = frontier.pop()
        for action in ts.enabled(state):
            successor = ts.successor(state, action)
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return sorted(seen)


class TestSoundness:
    def test_representative_is_sigma_image(self, lanes3):
        ts = _ts(lanes3)
        sym = StateSymmetry(ts)
        for state in _reachable_sample(ts):
            rep, sigma = sym.canonicalize(state)
            assert rep == sym.apply(sigma, state)

    def test_orbit_mates_share_representative_lanes(self, lanes3):
        ts = _ts(lanes3)
        sym = StateSymmetry(ts)
        gens = list(sym.analysis.generators)
        rng = random.Random(0)
        for state in _reachable_sample(ts, limit=100):
            rep, _ = sym.canonicalize(state)
            image = state
            for _ in range(4):
                image = sym.apply(rng.choice(gens), image)
                rep_image, _ = sym.canonicalize(image)
                assert rep_image == rep

    def test_orbit_mates_share_representative_ring(self, ring4):
        ts = _ts(ring4)
        sym = StateSymmetry(ts)
        gens = list(sym.analysis.generators)
        rng = random.Random(1)
        for state in _reachable_sample(ts, limit=100):
            rep, _ = sym.canonicalize(state)
            image = state
            for _ in range(4):
                image = sym.apply(rng.choice(gens), image)
                rep_image, _ = sym.canonicalize(image)
                assert rep_image == rep

    def test_ring_uses_exact_group_minimum(self, ring4):
        # The cyclic group cannot realize arbitrary block permutations:
        # the representative must be the exact minimum over the closure,
        # which the enumeration tier guarantees.
        from repro.sym.perm import closure

        ts = _ts(ring4)
        sym = StateSymmetry(ts)
        ir = ts.ir
        elements = closure(
            sym.analysis.generators, ir.n_processes, ir.n_channels, 10_000
        )
        assert elements is not None
        for state in _reachable_sample(ts, limit=60):
            rep, _ = sym.canonicalize(state)
            exact_min = min(sym.apply(g, state) for g in elements)
            assert rep == exact_min

    def test_trivial_system_is_identity(self):
        from repro.core.builder import SystemBuilder

        b = SystemBuilder("line")
        b.source("src", latency=1)
        b.process("w", latency=2)
        b.sink("snk", latency=1)
        b.channel("a", "src", "w", capacity=1)
        b.channel("b", "w", "snk", capacity=1)
        ts = _ts(b.build())
        sym = StateSymmetry(ts)
        assert sym.trivial
        state = ts.initial_state()
        rep, sigma = sym.canonicalize(state)
        assert rep == state
        assert sigma == sym._identity


class TestTierSelection:
    def test_lanes_pick_the_block_strategy(self, lanes3):
        sym = StateSymmetry(_ts(lanes3))
        assert any(
            isinstance(s, _BlockStrategy) for s in sym.strategies
        )

    def test_ring_picks_the_enumeration_strategy(self, ring4):
        sym = StateSymmetry(_ts(ring4))
        assert any(isinstance(s, _EnumStrategy) for s in sym.strategies)

    def test_wide_lanes_stay_block_not_enum(self):
        # S_8 has 40320 elements, far over ENUMERATION_LIMIT: only the
        # block strategy keeps canonicalization cheap there.
        sym = StateSymmetry(_ts(build_lanes(8)))
        assert any(isinstance(s, _BlockStrategy) for s in sym.strategies)


class TestPolicyGuard:
    def test_rejects_relaxed_analysis(self, lanes3):
        import pytest

        ts = _ts(lanes3)
        ir = ts.ir
        relaxed = analyze_symmetry(ir, policy=ORDER_RELAXED)
        with pytest.raises(ValueError):
            StateSymmetry(ts, relaxed)

    def test_accepts_precomputed_exact_analysis(self, lanes3):
        ts = _ts(lanes3)
        analysis = analyze_symmetry(ts.ir, policy=EXACT)
        sym = StateSymmetry(ts, analysis)
        assert sym.analysis is analysis


class TestActionMapping:
    def test_mapped_actions_commute_with_apply(self, lanes3):
        # sigma(apply(state, a)) == apply(sigma(state), sigma(a)):
        # automorphisms commute with the successor relation.
        ts = _ts(lanes3)
        sym = StateSymmetry(ts)
        for g in sym.analysis.generators:
            for state in _reachable_sample(ts, limit=40):
                for action in ts.enabled(state):
                    lhs = sym.apply(g, ts.successor(state, action))
                    image = sym.map_action(g, ts.action(action))
                    rhs = ts.successor(
                        sym.apply(g, state), ts.action_id(image)
                    )
                    assert lhs == rhs
