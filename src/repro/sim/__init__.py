"""Discrete-event simulator: the RTL/SystemC-simulation substitute.

Executes a system cycle-accurately under the blocking rendezvous protocol
(Fig. 2(b) FSM semantics) with optional functional payloads, measures
throughput and stalls, and detects runtime deadlocks with a wait-for-cycle
diagnosis.  One pipeline (:mod:`repro.sim.engine`) serves two front
ends: :class:`Simulator` (one lane, exact int clocks, payloads) and
:class:`BatchSimulator` (B lanes sharing one control walk).
"""

from repro.sim.engine import (
    BatchLane, BatchSimulator, SimulationResult, Simulator, default_watch,
    simulate, simulate_batch,
)

__all__ = [
    "BatchLane",
    "BatchSimulator",
    "SimulationResult",
    "Simulator",
    "default_watch",
    "simulate",
    "simulate_batch",
]
