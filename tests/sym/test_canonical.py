"""Canonical labeling: orbits, verified generators, hash invariance."""

from hypothesis import given, settings

from repro.core.system import ChannelOrdering
from repro.ir import lower
from repro.sym import EXACT, ORDER_RELAXED, TOPOLOGY_RELAXED, analyze_symmetry
from repro.sym.canonical import ATTR_RELAXED, is_automorphism, respects_policy
from tests.strategies import replicated_family_systems
from tests.sym.conftest import build_lanes, build_ring


def _analysis(system, ordering=None, policy=EXACT):
    ir = lower(system, ordering or ChannelOrdering.declaration_order(system))
    return ir, analyze_symmetry(ir, policy=policy)


class TestOrbits:
    def test_lanes_have_full_lane_symmetry(self, lanes3):
        ir, analysis = _analysis(lanes3)
        assert analysis.complete
        assert not analysis.trivial
        sizes = sorted(len(o) for o in analysis.replicated_process_orbits)
        # src/w/snk triples each form one orbit of 3.
        assert sizes == [3, 3, 3]
        sizes_c = sorted(len(o) for o in analysis.replicated_channel_orbits)
        assert sizes_c == [3, 3]

    def test_ring_has_rotation_orbits(self, ring4):
        ir, analysis = _analysis(ring4)
        assert analysis.complete
        assert not analysis.trivial
        assert all(len(o) == 4 for o in analysis.replicated_process_orbits)
        assert all(len(o) == 4 for o in analysis.replicated_channel_orbits)

    def test_hub_fanout_strict_group_is_trivial(self):
        # A shared producer pins its consumers by statement position:
        # strict automorphisms must preserve positions, so the group is
        # trivial even though the consumers "look" interchangeable.
        from repro.core.builder import SystemBuilder

        b = SystemBuilder("hub")
        b.source("src", latency=1)
        for i in range(3):
            b.process(f"w{i}", latency=2)
        b.sink("snk", latency=1)
        for i in range(3):
            b.channel(f"c{i}", "src", f"w{i}", capacity=2)
        for i in range(3):
            b.channel(f"o{i}", f"w{i}", "snk", capacity=2)
        ir, analysis = _analysis(b.build())
        assert analysis.trivial
        # Relaxing statement order restores the expected family.
        _, relaxed = _analysis(b.build(), policy=ORDER_RELAXED)
        assert not relaxed.trivial

    def test_generators_are_verified_automorphisms(self, lanes3, ring4):
        for system in (lanes3, ring4):
            ir, analysis = _analysis(system)
            assert analysis.generators
            for gp, gc in analysis.generators:
                assert is_automorphism(ir, gp, gc)
                assert respects_policy(ir, gp, gc, EXACT)


class TestCanonicalHash:
    def test_invariant_under_renaming(self):
        _, a = _analysis(build_lanes(3))
        _, b = _analysis(build_lanes(3, prefix="x_"))
        assert a.complete and b.complete
        assert a.canonical_hash == b.canonical_hash

    def test_invariant_under_lane_redeclaration(self):
        # Declaring the lanes in a different order permutes pids/cids but
        # not the canonical form.
        from repro.core.builder import SystemBuilder

        b = SystemBuilder("lanes3")
        for i in (2, 0, 1):
            b.source(f"src{i}", latency=1)
            b.process(f"w{i}", latency=2)
            b.sink(f"snk{i}", latency=1)
        for i in (1, 2, 0):
            b.channel(f"in{i}", f"src{i}", f"w{i}", capacity=2)
        for i in (0, 2, 1):
            b.channel(f"out{i}", f"w{i}", f"snk{i}", capacity=2)
        _, reordered = _analysis(b.build())
        _, reference = _analysis(build_lanes(3))
        assert reordered.canonical_hash == reference.canonical_hash

    def test_distinguishes_channel_attributes(self):
        _, a = _analysis(build_lanes(3, capacity=2))
        _, b = _analysis(build_lanes(3, capacity=3))
        assert a.canonical_hash != b.canonical_hash

    def test_structural_hashes_differ_where_canonical_agree(self):
        ir_a = lower(
            build_lanes(3),
            ChannelOrdering.declaration_order(build_lanes(3)),
        )
        renamed = build_lanes(3, prefix="x_")
        ir_b = lower(renamed, ChannelOrdering.declaration_order(renamed))
        assert ir_a.structural_hash != ir_b.structural_hash


class TestPolicies:
    def test_attr_relaxed_merges_capacity_variants(self):
        _, strict = _analysis(build_lanes(3, drift_capacity=5))
        _, relaxed = _analysis(
            build_lanes(3, drift_capacity=5), policy=ATTR_RELAXED
        )
        strict_sizes = sorted(len(o) for o in strict.replicated_process_orbits)
        relaxed_sizes = sorted(
            len(o) for o in relaxed.replicated_process_orbits
        )
        assert strict_sizes == [2, 2, 2]  # the drifted lane drops out
        assert relaxed_sizes == [3, 3, 3]

    def test_topology_relaxed_merges_drifted_channels(self):
        _, topo = _analysis(
            build_lanes(3, drift_capacity=5), policy=TOPOLOGY_RELAXED
        )
        assert any(len(o) == 3 for o in topo.replicated_channel_orbits)

    def test_policies_namespace_the_hash(self, lanes3):
        ir = lower(lanes3, ChannelOrdering.declaration_order(lanes3))
        hashes = {
            analyze_symmetry(ir, policy=p).canonical_hash
            for p in (EXACT, ORDER_RELAXED, ATTR_RELAXED, TOPOLOGY_RELAXED)
        }
        assert len(hashes) == 4


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(system=replicated_family_systems())
    def test_replicated_families_are_never_trivial(self, system):
        ir, analysis = _analysis(system)
        assert analysis.complete
        assert not analysis.trivial
        for gp, gc in analysis.generators:
            assert is_automorphism(ir, gp, gc)

    @settings(max_examples=25, deadline=None)
    @given(system=replicated_family_systems())
    def test_orbits_partition_the_index_spaces(self, system):
        ir, analysis = _analysis(system)
        pids = [pid for orbit in analysis.process_orbits for pid in orbit]
        cids = [cid for orbit in analysis.channel_orbits for cid in orbit]
        assert sorted(pids) == list(range(ir.n_processes))
        assert sorted(cids) == list(range(ir.n_channels))
