"""Metrics derived from simulation results.

Bridges the simulator to the analytic model: steady-state throughput and
agreement checks against the TMG cycle time.
"""

from __future__ import annotations

from fractions import Fraction

from repro.sim.engine import SimulationResult


def throughput(result: SimulationResult, process: str) -> Fraction | None:
    """Steady-state items per cycle at ``process`` (reciprocal of the
    measured iteration period)."""
    period = result.measured_cycle_time(process)
    if period is None or period == 0:
        return None
    return 1 / period


def agreement_error(
    result: SimulationResult, process: str, predicted_cycle_time: Fraction | float
) -> float | None:
    """Relative error between measured and predicted cycle time.

    The headline validation of the reproduction: the TMG prediction and the
    cycle-accurate simulation must agree (0.0 in exact steady state).
    """
    measured = result.measured_cycle_time(process)
    if measured is None or predicted_cycle_time == 0:
        return None
    return abs(float(measured) - float(predicted_cycle_time)) / float(
        predicted_cycle_time
    )
