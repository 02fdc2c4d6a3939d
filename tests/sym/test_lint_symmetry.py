"""ERM701-ERM703 — the symmetry lint rules."""

from __future__ import annotations

import pytest

from repro.core import SystemBuilder
from repro.core.system import ChannelOrdering
from repro.diagnostics import Severity
from repro.lint import lint_system
from repro.lint.registry import catalog, category
from tests.sym.conftest import build_lanes


def _by_rule(result, code):
    return [d for d in result.diagnostics if d.rule == code]


@pytest.fixture()
def swapped_gets_system():
    """Two interchangeable sources read in non-canonical order."""
    return (
        SystemBuilder("swap")
        .source("srcA", latency=1)
        .source("srcB", latency=1)
        .process("w", latency=2)
        .sink("snk", latency=1)
        .channel("a", "srcA", "w", capacity=2)
        .channel("b", "srcB", "w", capacity=2)
        .channel("o", "w", "snk", capacity=2)
        .build()
    )


class TestRegistration:
    def test_rules_are_registered_with_the_symmetry_category(self):
        codes = {rule.code for rule in catalog()}
        assert {"ERM701", "ERM702", "ERM703"} <= codes
        for code in ("ERM701", "ERM702", "ERM703"):
            assert category(code) == "symmetry"


class TestERM701:
    def test_reports_each_replicated_family(self, lanes3):
        result = lint_system(lanes3)
        findings = _by_rule(result, "ERM701")
        # src/w/snk triples: three families of three.
        assert len(findings) == 3
        for d in findings:
            assert d.severity is Severity.INFO
            assert "3" in d.message
            assert len(d.location) == 3
        located = {d.location for d in findings}
        assert ("w0", "w1", "w2") in located

    def test_silent_on_asymmetric_designs(self):
        system = (
            SystemBuilder("line")
            .source("src", latency=1)
            .process("w", latency=2)
            .sink("snk", latency=1)
            .channel("a", "src", "w", capacity=1)
            .channel("b", "w", "snk", capacity=1)
            .build()
        )
        assert not _by_rule(lint_system(system), "ERM701")


class TestERM702:
    def test_flags_non_canonical_symmetric_ordering(self, swapped_gets_system):
        ordering = ChannelOrdering.from_orders(
            swapped_gets_system, gets={"w": ("b", "a")}
        )
        result = lint_system(swapped_gets_system, ordering)
        findings = _by_rule(result, "ERM702")
        assert len(findings) == 1
        d = findings[0]
        assert d.severity is Severity.INFO
        assert d.fixable
        assert d.fix.gets["w"] == ("a", "b")

    def test_fix_applies_and_silences_the_rule(self, swapped_gets_system):
        ordering = ChannelOrdering.from_orders(
            swapped_gets_system, gets={"w": ("b", "a")}
        )
        finding = _by_rule(
            lint_system(swapped_gets_system, ordering), "ERM702"
        )[0]
        patched = finding.fix.apply(swapped_gets_system, ordering)
        assert patched.gets_of("w") == ("a", "b")
        assert not _by_rule(
            lint_system(swapped_gets_system, patched), "ERM702"
        )

    def test_silent_on_canonical_ordering(self, swapped_gets_system):
        assert not _by_rule(lint_system(swapped_gets_system), "ERM702")

    def test_never_crosses_latency_classes(self, swapped_gets_system):
        # Make the sources latency-distinct: swapping them would change
        # timing, so the rule must not propose it.
        system = swapped_gets_system.with_process_latencies({"srcB": 7})
        ordering = ChannelOrdering.from_orders(system, gets={"w": ("b", "a")})
        assert not _by_rule(lint_system(system, ordering), "ERM702")


class TestERM703:
    def test_flags_capacity_drift_in_a_symmetric_family(self):
        system = build_lanes(3, drift_capacity=5)
        findings = _by_rule(lint_system(system), "ERM703")
        assert len(findings) == 1
        d = findings[0]
        assert d.severity is Severity.WARNING
        assert d.location[0] == "in1"  # the drifted outlier leads
        assert "in1" in d.message

    def test_silent_on_uniform_families(self, lanes3):
        assert not _by_rule(lint_system(lanes3), "ERM703")

    def test_silent_without_any_symmetry(self):
        system = (
            SystemBuilder("line")
            .source("src", latency=1)
            .process("w", latency=2)
            .sink("snk", latency=1)
            .channel("a", "src", "w", capacity=1)
            .channel("b", "w", "snk", capacity=3)
            .build()
        )
        assert not _by_rule(lint_system(system), "ERM703")
