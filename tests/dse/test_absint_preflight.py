"""The explorer's static preflight: prune, certify, or cross-check.

``Explorer._verify_ordering`` only touches ``config.system`` and
``config.ordering``, so a bare namespace stands in for a full
``SystemConfiguration`` — the point under test is the routing between
the abstract-interpretation preflight and the exhaustive BFS, not the
exploration loop around it.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.dse import Explorer
from repro.errors import DeadlockError
from repro.mpeg2 import build_mpeg2_system
from repro.obs import MetricsRegistry
from repro.ordering import channel_ordering


@pytest.fixture()
def explorer():
    return Explorer(target_cycle_time=10)


def _config(system, ordering):
    return SimpleNamespace(system=system, ordering=ordering)


class TestStaticPrune:
    def test_statically_deadlocked_orderings_are_pruned(
        self, explorer, motivating, deadlock_ordering
    ):
        metrics = MetricsRegistry()
        with pytest.raises(DeadlockError, match="static preflight"):
            explorer._verify_ordering(
                _config(motivating, deadlock_ordering), metrics
            )
        assert metrics.counter("dse.absint.runs").value == 1
        assert metrics.counter("dse.absint.deadlock_pruned").value == 1
        # No state-space search is ever spent on a pruned candidate.
        assert metrics.counter("dse.verify.runs").value == 0

    def test_prune_carries_the_witness_cycle(
        self, explorer, motivating, deadlock_ordering
    ):
        with pytest.raises(DeadlockError) as excinfo:
            explorer._verify_ordering(
                _config(motivating, deadlock_ordering), None
            )
        assert excinfo.value.cycle


class TestRouting:
    def test_small_systems_are_cross_checked_by_bfs(
        self, explorer, motivating, optimal_ordering
    ):
        metrics = MetricsRegistry()
        explorer._verify_ordering(
            _config(motivating, optimal_ordering), metrics
        )
        assert metrics.counter("dse.absint.runs").value == 1
        assert metrics.counter("dse.absint.bfs_crosschecks").value == 1
        assert metrics.counter("dse.verify.runs").value == 1
        assert metrics.counter("dse.absint.certified").value == 0

    def test_large_systems_rely_on_the_certificate(self, explorer):
        system = build_mpeg2_system()
        ordering = channel_ordering(system)
        metrics = MetricsRegistry()
        explorer._verify_ordering(_config(system, ordering), metrics)
        assert metrics.counter("dse.absint.certified").value == 1
        # Beyond SMALL_SYSTEM_LIMIT no BFS runs at all.
        assert metrics.counter("dse.verify.runs").value == 0
        assert metrics.counter("dse.absint.bfs_crosschecks").value == 0
