"""Declared families: verification, serialization, and the ERM701 fast path."""

import pytest

from repro.core import ChannelOrdering, system_from_dict, system_to_dict
from repro.dsl import (
    Wire,
    pipe,
    replicate,
    sink_stage,
    stage,
    testbenched as close_ports,
)
from repro.dsl.combinators import ring
from repro.ir import lower
from repro.lint import lint_system
from repro.lint.context import LintContext
from repro.sym import verify_families


def lanes_system(k=3, latency=3):
    design = close_ports(
        replicate(
            k,
            lambda i: stage(f"w{i}", latency=latency),
            family="lanes",
        )
    )
    return design.build(name="lanes")


def shared_tail_system(k=3):
    """Lanes gathered into one shared sink: symmetric only up to ordering."""
    design = close_ports(
        pipe(
            replicate(k, lambda i: stage(f"w{i}", latency=3), family="lanes"),
            sink_stage("gather", inputs=k),
        )
    )
    return design.build(name="gathered")


def ring_system(k=4):
    parts = [
        stage(f"st{i}", inputs=["ring_in", "in"],
              outputs=["ring_out", "out"], wire=Wire())
        for i in range(k)
    ]
    return close_ports(ring(parts, tokens=1, family="ring")) \
        .build(name=f"ring{k}")


def lowered(system):
    return lower(system, ChannelOrdering.declaration_order(system))


class TestVerification:
    def test_per_lane_testbenches_verify_exactly(self):
        system = lanes_system()
        (verified,) = verify_families(
            lowered(system), system.declared_families
        )
        assert verified.exact
        assert len(verified.generators) == 2  # k-1 adjacent transpositions

    def test_shared_endpoint_downgrades_to_order_relaxed(self):
        system = shared_tail_system()
        (verified,) = verify_families(
            lowered(system), system.declared_families
        )
        assert not verified.exact

    def test_cyclic_ring_verifies_exactly(self):
        system = ring_system()
        (verified,) = verify_families(
            lowered(system), system.declared_families
        )
        assert verified.exact
        assert verified.family.kind == "cyclic"
        assert len(verified.generators) == 1  # one rotation generator

    def test_latency_drift_alone_keeps_the_family(self):
        # Process latencies are configuration (DSE reassigns them per
        # implementation), not structure: the family survives.
        system = lanes_system()
        slowed = system.with_process_latencies({"w0": 99})
        (verified,) = verify_families(
            lowered(slowed), slowed.declared_families
        )
        assert verified.exact

    def test_channel_attribute_drift_drops_the_family(self):
        system = lanes_system()
        # Deepen one lane's FIFO after declaration: the lanes are no
        # longer copies under any policy, so the claim is dropped.
        asymmetric = system.with_channel_capacities({"w0.out": 5})
        assert verify_families(
            lowered(asymmetric), asymmetric.declared_families
        ) == ()


class TestSerialization:
    def test_families_round_trip_through_dict(self):
        system = lanes_system()
        clone = system_from_dict(system_to_dict(system))
        assert clone.declared_families == system.declared_families
        (verified,) = verify_families(
            lowered(clone), clone.declared_families
        )
        assert verified.exact

    def test_families_survive_capacity_resizing(self):
        system = lanes_system()
        resized = system.with_channel_capacities(
            {name: 2 for name in system.channel_names}
        )
        assert resized.declared_families == system.declared_families


class TestErm701FastPath:
    def test_declared_family_is_reported_as_declared(self):
        result = lint_system(lanes_system(), select=["ERM701"])
        findings = [d for d in result.diagnostics if d.rule == "ERM701"]
        # One diagnostic per orbit: workers, per-lane sources, per-lane sinks.
        assert len(findings) == 3
        assert all(
            "declared by the composition layer as 'lanes'" in d.message
            for d in findings
        )
        (worker_finding,) = [d for d in findings if "'w0'" in d.message]
        assert "'w0', 'w1', 'w2'" in worker_finding.message

    def test_shared_endpoint_wording_names_the_serialization(self):
        result = lint_system(shared_tail_system(), select=["ERM701"])
        findings = [d for d in result.diagnostics if d.rule == "ERM701"]
        assert findings
        assert all(
            "up to statement reordering" in d.message for d in findings
        )
        assert all("shared" in d.message for d in findings)

    def test_declared_families_skip_the_canonical_search(self, monkeypatch):
        """ERM701's fast path must not run canonical labeling at all."""

        def forbidden(self, policy, small_only=False):
            raise AssertionError(
                "ERM701 ran the canonical-labeling search despite "
                "declared families"
            )

        monkeypatch.setattr(LintContext, "_analyze_symmetry", forbidden)
        result = lint_system(lanes_system(), select=["ERM701"])
        assert any(d.rule == "ERM701" for d in result.diagnostics)

    def test_undeclared_replication_still_rediscovered(self):
        """Without declarations the search path still finds the family."""
        design = close_ports(
            replicate(2, lambda i: stage(f"w{i}", latency=3))
        )
        system = design.build(name="anon")
        # Auto-named claim exists; strip it to exercise the search path.
        bare = system_from_dict(
            {
                key: value
                for key, value in system_to_dict(system).items()
                if key != "families"
            }
        )
        assert bare.declared_families == ()
        result = lint_system(bare, select=["ERM701"])
        findings = [d for d in result.diagnostics if d.rule == "ERM701"]
        assert findings
        assert all("declared" not in d.message for d in findings)
        assert any("'w0', 'w1'" in d.message for d in findings)
