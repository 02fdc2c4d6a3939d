"""The headline integration property: simulation == analysis.

The paper's claim for the Section 3 model is that the TMG predicts the
performance of the synthesized hardware without simulation.  Here the
discrete-event simulator plays the role of the hardware: for random
systems and random (live) orderings, the steady-state period it measures
must equal the analytic cycle time exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationDeadlock
from repro.model import analyze_system
from repro.ordering import channel_ordering
from repro.ordering.baselines import random_ordering
from repro.sim import simulate
from repro.sim.metrics import agreement_error
from tests.strategies import layered_systems


def _watch(system):
    sinks = system.sinks()
    return sinks[0].name if sinks else system.process_names[0]


@settings(max_examples=40, deadline=None)
@given(system=layered_systems())
def test_simulation_matches_analysis_under_algorithm_ordering(system):
    ordering = channel_ordering(system)
    predicted = analyze_system(system, ordering).cycle_time
    result = simulate(system, ordering, iterations=60)
    error = agreement_error(result, _watch(system), predicted)
    if predicted == 0:
        return
    assert error is not None
    # Finite-window burst residue only; exact in the common 1-token case.
    assert error <= 0.12


@settings(max_examples=40, deadline=None)
@given(system=layered_systems(), seed=st.integers(0, 50))
def test_simulation_and_analysis_agree_on_deadlock(system, seed):
    """Analysis says deadlock <=> the simulator actually deadlocks."""
    ordering = random_ordering(system, seed=seed)
    try:
        predicted = analyze_system(system, ordering).cycle_time
        analytic_deadlock = False
    except DeadlockError:
        analytic_deadlock = True
        predicted = None
    try:
        result = simulate(system, ordering, iterations=40)
        simulated_deadlock = False
    except SimulationDeadlock:
        simulated_deadlock = True
        result = None
    assert analytic_deadlock == simulated_deadlock
    if not analytic_deadlock and predicted:
        error = agreement_error(result, _watch(system), predicted)
        assert error is not None and error <= 0.12
