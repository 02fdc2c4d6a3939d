"""Orbit-deduplicated exploration: bit-identical results, fewer runs."""

from fractions import Fraction

import pytest

from repro.core.system import ChannelOrdering
from repro.ordering.exhaustive import exhaustive_search
from tests.sym.conftest import build_twolanes


class TestExhaustiveDedup:
    def test_results_bit_identical(self, twolanes):
        plain = exhaustive_search(twolanes)
        deduped = exhaustive_search(twolanes, sym_dedup=True)
        assert deduped.total_orderings == plain.total_orderings
        assert deduped.live_orderings == plain.live_orderings
        assert (
            deduped.deadlocking_orderings == plain.deadlocking_orderings
        )
        assert deduped.best_cycle_time == plain.best_cycle_time
        assert deduped.worst_cycle_time == plain.worst_cycle_time
        assert deduped.best_ordering == plain.best_ordering
        assert deduped.worst_ordering == plain.worst_ordering
        assert isinstance(deduped.best_cycle_time, Fraction)

    def test_dedup_actually_skips_analyses(self, twolanes):
        deduped = exhaustive_search(twolanes, sym_dedup=True)
        assert deduped.sym_deduped > 0
        assert deduped.sym_classes >= 1
        assert (
            deduped.sym_classes + deduped.sym_deduped
            == deduped.total_orderings
        )

    def test_callbacks_fire_for_every_ordering(self, twolanes):
        seen_plain: list = []
        seen_dedup: list = []
        exhaustive_search(
            twolanes, on_ordering=lambda o, ct: seen_plain.append(ct)
        )
        exhaustive_search(
            twolanes,
            sym_dedup=True,
            on_ordering=lambda o, ct: seen_dedup.append(ct),
        )
        assert seen_dedup == seen_plain

    def test_plain_search_reports_zero_dedup(self, twolanes):
        plain = exhaustive_search(twolanes)
        assert plain.sym_deduped == 0
        assert plain.sym_classes == 0


class TestExplorerSweepDedup:
    @pytest.fixture()
    def config(self, twolanes):
        from repro.dse import SystemConfiguration
        from repro.hls import Implementation, ImplementationLibrary, ParetoSet

        sets = []
        for process in twolanes.workers():
            base = process.latency
            sets.append(
                ParetoSet.from_points(
                    process.name,
                    [
                        Implementation(f"{process.name}.small", base * 2, 10.0),
                        Implementation(f"{process.name}.fast", base, 20.0),
                    ],
                )
            )
        library = ImplementationLibrary(sets)
        return SystemConfiguration.initial(
            twolanes,
            library,
            ordering=ChannelOrdering.declaration_order(twolanes),
            pick="smallest",
        )

    def test_sweep_shares_one_orbit_seen_set(self, config):
        from repro.dse.sweep import sweep_targets
        from repro.obs import DseProfiler

        profiler = DseProfiler()
        shared_seen: set[str] = set()
        points = sweep_targets(
            config,
            targets=[8, 6, 4],
            batch=False,
            profiler=profiler,
            sym_seen=shared_seen,
        )
        assert len(points) == 3
        runs = profiler.metrics.counter("dse.verify.runs").value
        deduped = profiler.metrics.counter("dse.sym.verify_deduped").value
        # Every verify run lands its canonical class in the one shared
        # set; later targets re-encountering a class are deduped, so
        # distinct classes never exceed actual runs.
        assert len(shared_seen) <= runs
        if runs and deduped:
            assert len(shared_seen) < runs + deduped
