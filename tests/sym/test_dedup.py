"""Orbit-deduplicated verification across a target sweep."""

import pytest

from repro.core.system import ChannelOrdering


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
        from repro.obs import collect

        shared_seen: set[str] = set()
        with collect() as registry:
            points = sweep_targets(
                config,
                targets=[8, 6, 4],
                batch=False,
                sym_seen=shared_seen,
            )
        assert len(points) == 3
        runs = registry.counter("dse.verify.runs").value
        deduped = registry.counter("dse.sym.verify_deduped").value
        # Every verify run lands its canonical class in the one shared
        # set; later targets re-encountering a class are deduped, so
        # distinct classes never exceed actual runs.
        assert len(shared_seen) <= runs
        if runs and deduped:
            assert len(shared_seen) < runs + deduped
