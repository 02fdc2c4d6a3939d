"""IR — compile once, run everywhere must actually pay for itself.

The lowered core IR (:mod:`repro.ir`) fronts every consumer of a
``(system, ordering)`` pair, so it carries two quantified promises:

* **lowering is cheap** — a cold :func:`repro.ir.lower` costs less than
  5% of a single simulation run, so no caller needs to think twice about
  lowering eagerly (and a warm call is a dict probe);
* **the array simulator is fast** — executing the dense integer program
  beats the frozen interpretive engine
  (:class:`tests.sim.reference.ReferenceSimulator`, the pre-IR
  implementation kept verbatim as oracle and baseline) by at least 1.5x,
  with bit-identical results.

* **a run with no control period is no slower than interpreting it** —
  a FIFO of depth 5,000 filling over 3,000 iterations never repeats its
  control state, so the walk runs to the end and the clocks are replayed
  slot by slot; that still beats the interpretive engine.

All are asserted here so a refactor that quietly fattens the lowering
or slows the hot loop fails the benchmark suite, not a profile later.
Runs of one IR share its control walk (the ``walk`` memo); every timed
simulation starts with that memo cleared, so it times a full run.
"""

import time

from conftest import time_interleaved
from repro.cache import memos
from repro.core import ChannelOrdering, synthetic_soc
from repro.ir import clear_lowering_cache, lower
from repro.ordering import channel_ordering
from repro.sim import Simulator
from tests.sim.reference import ReferenceSimulator
from tests.sim.test_long_horizon import _fill_system

#: Enforced floor on array-engine vs interpretive-engine speed (measured
#: ~3.8x on this workload; 1.5x leaves room for slow CI machines).
MIN_SPEEDUP = 1.5
#: Enforced ceiling on cold lowering cost relative to one simulation.
MAX_LOWERING_FRACTION = 0.05
#: Enforced floor on array-engine vs interpretive-engine speed on the
#: FIFO fill, which finds no control period.
MIN_FILL_SPEEDUP = 1.0
FILL_DEPTH = 5000
FILL_ITERATIONS = 3000
ITERATIONS = 60
REPEATS = 5


def _system():
    system = synthetic_soc(60, seed=7)
    return system, channel_ordering(system)


def _simulation(simulator_cls, system, ordering, iterations=ITERATIONS):
    """Set-up for one timed run of ``simulator_cls`` (built untimed, with
    the walk memo cleared, so the run walks in full)."""
    def prepare():
        simulator = simulator_cls(system, ordering)
        memos()["walk"].clear()
        return lambda: simulator.run(iterations=iterations)
    return prepare


def _cold_lowering(system, ordering):
    """Set-up for one timed cold :func:`lower`: an untimed lowering warms
    the interpreter's caches, as each earlier repeat did when the repeats
    ran back to back, then the memo is cleared."""
    def prepare():
        clear_lowering_cache()
        lower(system, ordering)
        clear_lowering_cache()
        return lambda: lower(system, ordering)
    return prepare


def test_bench_ir_simulator_speedup(benchmark):
    """The array program runs >= 1.5x the interpretive walk, same bits."""
    system, ordering = _system()
    # Warm imports, the lowering memo, and the branch predictors alike.
    Simulator(system, ordering).run(iterations=2)
    ReferenceSimulator(system, ordering).run(iterations=2)

    times, results = time_interleaved({
        "ir": _simulation(Simulator, system, ordering),
        "reference": _simulation(ReferenceSimulator, system, ordering),
    }, REPEATS)
    t_ir, t_ref = times["ir"], times["reference"]
    ir_result, ref_result = results["ir"], results["reference"]

    benchmark.pedantic(
        lambda: Simulator(system, ordering).run(iterations=ITERATIONS),
        setup=memos()["walk"].clear,
        rounds=3,
        iterations=1,
    )

    speedup = t_ref / t_ir
    benchmark.extra_info.update({
        "ir_engine_s": round(t_ir, 4),
        "reference_engine_s": round(t_ref, 4),
        "speedup": round(speedup, 2),
    })
    print(f"\nIR engine {t_ir*1e3:.1f} ms | reference {t_ref*1e3:.1f} ms | "
          f"speedup x{speedup:.2f}")

    # Same semantics, faster execution — the whole point of the IR.
    assert ir_result == ref_result
    assert speedup >= MIN_SPEEDUP


def test_bench_ir_lowering_cost(benchmark):
    """Cold lowering stays under 5% of one simulation; warm is a probe."""
    system, ordering = _system()
    Simulator(system, ordering).run(iterations=2)

    times, _ = time_interleaved({
        "simulation": _simulation(Simulator, system, ordering),
        "cold": _cold_lowering(system, ordering),
    }, REPEATS)
    t_sim, t_cold = times["simulation"], times["cold"]

    lower(system, ordering)  # ensure warm
    start = time.perf_counter()
    for _ in range(100):
        lower(system, ordering)
    t_warm = (time.perf_counter() - start) / 100

    benchmark.pedantic(
        lambda: (clear_lowering_cache(), lower(system, ordering)),
        rounds=3,
        iterations=1,
    )

    fraction = t_cold / t_sim
    benchmark.extra_info.update({
        "cold_lowering_ms": round(t_cold * 1e3, 3),
        "warm_lowering_us": round(t_warm * 1e6, 2),
        "simulation_ms": round(t_sim * 1e3, 2),
        "cold_fraction_of_sim": round(fraction, 4),
    })
    print(f"\ncold lower {t_cold*1e3:.2f} ms "
          f"({fraction:.1%} of a {t_sim*1e3:.1f} ms simulation) | "
          f"warm {t_warm*1e6:.1f} us")

    assert fraction < MAX_LOWERING_FRACTION
    # A warm call must be orders of magnitude below cold (memo working).
    assert t_warm < t_cold / 2


def test_bench_ir_no_repeat_fill(benchmark):
    """A run that never repeats its control state still beats the
    interpretive walk, with the same bits."""
    system = _fill_system(FILL_DEPTH)
    ordering = ChannelOrdering.declaration_order(system)
    Simulator(system, ordering).run(iterations=2)

    times, results = time_interleaved({
        name: _simulation(cls, system, ordering, FILL_ITERATIONS)
        for name, cls in (("ir", Simulator), ("reference", ReferenceSimulator))
    }, 3)
    t_ir, t_ref = times["ir"], times["reference"]

    benchmark.pedantic(
        lambda: Simulator(system, ordering).run(iterations=FILL_ITERATIONS),
        setup=memos()["walk"].clear,
        rounds=1,
        iterations=1,
    )

    speedup = t_ref / t_ir
    benchmark.extra_info.update({
        "ir_engine_s": round(t_ir, 4),
        "reference_engine_s": round(t_ref, 4),
        "speedup": round(speedup, 2),
    })
    print(f"\nFIFO fill: IR engine {t_ir*1e3:.1f} ms | reference "
          f"{t_ref*1e3:.1f} ms | speedup x{speedup:.2f}")

    assert results["ir"] == results["reference"]
    assert speedup >= MIN_FILL_SPEEDUP
