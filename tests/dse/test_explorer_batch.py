"""Batched simulation cross-validation of the exploration trajectory.

The ``batch`` option must only *add* measured cycle times — the analytic
trajectory, final configuration, and every history record stay untouched
— and the measurements must equal what the scalar engine reports for
each visited configuration individually.
"""

import pytest

from repro.core import ChannelOrdering
from repro.dse import Explorer, SystemConfiguration
from repro.hls import Implementation, ImplementationLibrary, ParetoSet
from repro.sim import Simulator


@pytest.fixture()
def setup(motivating):
    sets = []
    for process in motivating.workers():
        base = process.latency
        sets.append(
            ParetoSet.from_points(
                process.name,
                [
                    Implementation(f"{process.name}.small", base * 4, 10.0),
                    Implementation(f"{process.name}.mid", base * 2, 16.0),
                    Implementation(f"{process.name}.fast", base, 26.0),
                ],
            )
        )
    library = ImplementationLibrary(sets)
    return SystemConfiguration.initial(
        motivating, library,
        ordering=ChannelOrdering.declaration_order(motivating),
        pick="smallest",
    )


class TestExplorerBatch:
    def test_off_by_default(self, setup):
        result = Explorer(target_cycle_time=40).run(setup)
        assert result.measured_cycle_times is None

    def test_trajectory_identical_with_and_without_batch(self, setup):
        baseline = Explorer(target_cycle_time=40, batch=False).run(setup)
        batched = Explorer(target_cycle_time=40, batch=True).run(setup)
        assert batched.history == baseline.history
        assert batched.final_index == baseline.final_index
        assert batched.stop_reason == baseline.stop_reason
        assert batched.final.selection == baseline.final.selection

    def test_every_history_index_measured(self, setup):
        result = Explorer(target_cycle_time=40, batch=True).run(setup)
        assert result.measured_cycle_times is not None
        assert set(result.measured_cycle_times) == set(
            range(len(result.history))
        )

    def test_measurements_match_scalar_engine(self, setup):
        iterations = 24
        explorer = Explorer(
            target_cycle_time=40, batch=True, batch_iterations=iterations
        )
        result = explorer.run(setup)
        # Rebuild the visited configurations from history and check each
        # measured value against an individual scalar run.
        config = setup
        watch = setup.system.sinks()[0].name
        for index, record in enumerate(result.history):
            config = config.with_selection(dict(record.selection_changes))
            if record.reordered_processes:
                # The ordering changed here and persists downstream; the
                # rebuild above cannot follow it.  The differential suite
                # in tests/sim covers ordering variety.
                break
            scalar = Simulator(
                config.system,
                config.ordering,
                process_latencies=config.process_latencies(),
            ).run(iterations=iterations)
            assert result.measured_cycle_times[index] == (
                scalar.measured_cycle_time(watch)
            )
