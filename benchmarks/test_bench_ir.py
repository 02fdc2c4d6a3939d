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

Both are asserted here so a refactor that quietly fattens the lowering
or slows the hot loop fails the benchmark suite, not a profile later.
"""

import time

from repro.core import synthetic_soc
from repro.ir import clear_lowering_cache, lower
from repro.ordering import channel_ordering
from repro.sim import Simulator
from tests.sim.reference import ReferenceSimulator

#: Enforced floor on array-engine vs interpretive-engine speed (measured
#: ~3.8x on this workload; 1.5x leaves room for slow CI machines).
MIN_SPEEDUP = 1.5
#: Enforced ceiling on cold lowering cost relative to one simulation.
MAX_LOWERING_FRACTION = 0.05
ITERATIONS = 60
REPEATS = 5


def _system():
    system = synthetic_soc(60, seed=7)
    return system, channel_ordering(system)


def _time_run(simulator_cls, system, ordering, repeats=REPEATS):
    times = []
    results = []
    for _ in range(repeats):
        simulator = simulator_cls(system, ordering)
        start = time.perf_counter()
        results.append(simulator.run(iterations=ITERATIONS))
        times.append(time.perf_counter() - start)
    return min(times), results[-1]


def _time_cold_lowering(system, ordering, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        clear_lowering_cache()
        start = time.perf_counter()
        lower(system, ordering)
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_ir_simulator_speedup(benchmark):
    """The array program runs >= 1.5x the interpretive walk, same bits."""
    system, ordering = _system()
    # Warm imports, the lowering memo, and the branch predictors alike.
    Simulator(system, ordering).run(iterations=2)
    ReferenceSimulator(system, ordering).run(iterations=2)

    t_ir, ir_result = _time_run(Simulator, system, ordering)
    t_ref, ref_result = _time_run(ReferenceSimulator, system, ordering)

    benchmark.pedantic(
        lambda: Simulator(system, ordering).run(iterations=ITERATIONS),
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

    t_sim, _ = _time_run(Simulator, system, ordering)
    t_cold = _time_cold_lowering(system, ordering)

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
