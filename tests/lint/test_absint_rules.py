"""ERM601-ERM604 — the abstract-interpretation dataflow rules."""

from __future__ import annotations

import pytest

from repro.core import SystemBuilder
from repro.diagnostics import Severity
from repro.lint import lint_system
from repro.lint.registry import catalog, category
from repro.mpeg2 import build_mpeg2_system
from repro.ordering import channel_ordering


@pytest.fixture()
def over_provisioned_loop():
    """Deep FIFOs on a loop carrying a single token (ERM601 bait)."""
    return (
        SystemBuilder("creditloop")
        .source("src", latency=1)
        .process("w1", latency=1)
        .process("w2", latency=1)
        .sink("snk", latency=1)
        .channel("c_in", "src", "w1", latency=1)
        .channel("f", "w1", "w2", latency=1, capacity=4)
        .channel("bk", "w2", "w1", latency=1, capacity=4, initial_tokens=1)
        .channel("c_out", "w2", "snk", latency=1)
        .build()
    )


@pytest.fixture()
def dead_on_arrival():
    """Live spine plus a token-free rendezvous loop (ERM602/603 bait)."""
    return (
        SystemBuilder("doa")
        .source("src", latency=1)
        .process("w1", latency=1)
        .process("w2", latency=1)
        .sink("snk", latency=1)
        .channel("a", "src", "w1", latency=1)
        .channel("x", "w1", "w2", latency=1)
        .channel("y", "w2", "w1", latency=1)
        .channel("o", "w1", "snk", latency=1)
        .build()
    )


class TestRegistration:
    def test_rules_are_registered_with_the_dataflow_category(self):
        codes = {rule.code for rule in catalog()}
        assert {"ERM601", "ERM602", "ERM603", "ERM604"} <= codes
        for code in ("ERM601", "ERM602", "ERM603", "ERM604"):
            assert category(code) == "dataflow"


class TestERM601:
    def test_flags_unusable_fifo_depth(self, over_provisioned_loop):
        result = lint_system(over_provisioned_loop, select=["ERM6"])
        findings = [d for d in result if d.rule == "ERM601"]
        assert {d.location[0] for d in findings} == {"f", "bk"}
        for diagnostic in findings:
            assert diagnostic.severity is Severity.WARNING
            assert "capacity 4" in diagnostic.message
            assert "bounded by 1" in diagnostic.message

    def test_silent_when_capacity_is_reachable(self, tiny_pipeline):
        result = lint_system(tiny_pipeline, select=["ERM6"])
        assert not [d for d in result if d.rule == "ERM601"]


class TestERM602AndERM603:
    def test_dead_channels_are_flagged(self, dead_on_arrival):
        result = lint_system(dead_on_arrival, select=["ERM6"])
        dead = {d.location[0] for d in result if d.rule == "ERM602"}
        assert dead == {"o", "x", "y"}

    def test_unreachable_statements_are_flagged(self, dead_on_arrival):
        result = lint_system(dead_on_arrival, select=["ERM6"])
        findings = [d for d in result if d.rule == "ERM603"]
        assert findings
        messages = "\n".join(d.message for d in findings)
        assert "statically unreachable" in messages
        assert "'w2'" in messages
        # The live source side raises no ERM603.
        assert not any(d.location[0] == "src" for d in findings)

    def test_silent_on_live_designs(self, motivating, optimal_ordering):
        result = lint_system(motivating, optimal_ordering, select=["ERM6"])
        assert not [d for d in result if d.rule in ("ERM602", "ERM603")]


class TestERM604:
    def test_certificate_reported_beyond_bfs_scale(self):
        system = build_mpeg2_system()
        ordering = channel_ordering(system)
        result = lint_system(system, ordering, select=["ERM6"])
        [finding] = [d for d in result if d.rule == "ERM604"]
        assert finding.severity is Severity.INFO
        assert "siphon-ranking" in finding.message

    def test_silent_when_exhaustive_verdict_exists(
        self, motivating, optimal_ordering
    ):
        result = lint_system(motivating, optimal_ordering, select=["ERM6"])
        assert not [d for d in result if d.rule == "ERM604"]

    def test_silent_on_refuted_configurations(
        self, motivating, deadlock_ordering
    ):
        result = lint_system(motivating, deadlock_ordering, select=["ERM6"])
        assert not [d for d in result if d.rule == "ERM604"]
