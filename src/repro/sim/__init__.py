"""Discrete-event simulator: the RTL/SystemC-simulation substitute.

Executes a system cycle-accurately under the blocking rendezvous protocol
(Fig. 2(b) FSM semantics) with optional functional payloads, measures
throughput and stalls, and detects runtime deadlocks with a wait-for-cycle
diagnosis.  One pipeline (:mod:`repro.sim.engine`) serves two front
ends: :class:`Simulator` (one lane, exact int clocks, payloads) and
:class:`BatchSimulator` (B lanes sharing one control walk).
"""

from repro.sim.engine import (
    BatchLane,
    BatchSimulator,
    Behavior,
    SimulationResult,
    Simulator,
    default_watch,
    simulate,
    simulate_batch,
    token_behavior,
)
from repro.sim.metrics import (
    ProcessUtilization,
    agreement_error,
    throughput,
    utilizations,
)
from repro.sim.trace import TraceEvent, TraceSink, format_trace

__all__ = [
    "BatchLane",
    "BatchSimulator",
    "Behavior",
    "ProcessUtilization",
    "SimulationResult",
    "Simulator",
    "TraceEvent",
    "TraceSink",
    "agreement_error",
    "default_watch",
    "format_trace",
    "simulate",
    "simulate_batch",
    "throughput",
    "token_behavior",
    "utilizations",
]
