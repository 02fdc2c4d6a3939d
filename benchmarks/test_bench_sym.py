"""SYM — structural symmetry: quotient search and labeling cost.

Two claims.  First, the quotient-space search composes with the
stubborn-set reduction: on 8- and 12-stage rotationally symmetric rings
with per-stage testbenches it reaches the same verdict as POR alone,
and POR alone stays within its pinned state bounds (200 and 400
states).  Since the reduction fires one action per state, the quotient
no longer saves states on these rings; both searches' states and wall
times are recorded side by side.  Second, canonical labeling is cheap enough to run by default: analyzing a
60-process SoC costs under 5% of one simulation of that SoC.

Wall time rides beside the state counts: per ring, the quotient
benchmark records both searches' states and median wall times
(``por_wall_s``, ``quotient_wall_s``) in ``extra_info``.

The measurements are published as ``BENCH_sym.json`` for CI to upload.
"""

import json
import statistics
import time
from pathlib import Path

from repro.cache import memos
from repro.core import synthetic_soc
from repro.ir import lower
from repro.ordering import channel_ordering
from repro.sim import Simulator
from repro.sym import analyze_symmetry
from repro.verify import check_deadlock
from tests.verify.systems import ring_with_taps

#: Enforced ceiling on POR-only explored states per ring size (measured
#: 159 and 334).
POR_STATE_BOUNDS = {8: 200, 12: 400}
MAX_LABELING_FRACTION = 0.05
SIM_ITERATIONS = 60
REPORT = Path(__file__).resolve().parents[1] / "BENCH_sym.json"

_report: dict = {"experiment": "SYM"}


def test_bench_sym_quotient_state_reduction(benchmark):
    rings = benchmark.pedantic(
        _compare_rings, rounds=1, iterations=1, warmup_rounds=0
    )
    for name, ring in rings.items():
        assert ring["verdicts_agree"], f"{name}: quotient verdict differs"
        assert ring["por_states"] <= ring["por_state_bound"], (
            f"POR must explore <= {ring['por_state_bound']} states on "
            f"{name} ({ring['por_states']})"
        )
        print(
            f"\n{name}: POR {ring['por_states']} states in "
            f"{ring['por_wall_s']*1e3:.1f} ms | POR+sym "
            f"{ring['quotient_states']} states in "
            f"{ring['quotient_wall_s']*1e3:.1f} ms"
        )
    _report["quotient"] = rings
    benchmark.extra_info.update(rings)


def _compare_rings():
    """Both searches on every pinned ring: states, median wall times and
    whether the verdicts agree."""
    rings = {}
    for stages, bound in POR_STATE_BOUNDS.items():
        system = ring_with_taps(stages)
        plain, por_wall = _median_run(system, sym=False)
        quotient, quotient_wall = _median_run(system, sym=True)
        rings[f"ring{stages}"] = {
            "stages": stages,
            "por_states": plain.states_explored,
            "por_state_bound": bound,
            "por_wall_s": round(por_wall, 5),
            "quotient_states": quotient.states_explored,
            "quotient_wall_s": round(quotient_wall, 5),
            "sym_merged": quotient.sym_merged,
            "verdicts_agree": (
                plain.conclusive and quotient.verdict is plain.verdict
            ),
        }
    return rings


def _median_run(system, sym):
    """The search result and its median wall time over three runs."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        result = check_deadlock(system, por=True, sym=sym)
        walls.append(time.perf_counter() - start)
    return result, statistics.median(walls)


def test_bench_sym_labeling_cost(benchmark):
    system = synthetic_soc(60, seed=7)
    ordering = channel_ordering(system)
    ir = lower(system, ordering)
    Simulator(system, ordering).run(iterations=2)  # warm the machinery

    t_sim = min(
        _timed(lambda: Simulator(system, ordering).run(
            iterations=SIM_ITERATIONS
        ))
        for _ in range(3)
    )
    t_label = min(
        _timed(lambda: analyze_symmetry(ir)) for _ in range(3)
    )
    benchmark.pedantic(
        analyze_symmetry, args=(ir,), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    fraction = t_label / t_sim
    assert fraction < MAX_LABELING_FRACTION, (
        f"canonical labeling must cost < {MAX_LABELING_FRACTION:.0%} of "
        f"one simulation ({t_label*1e3:.2f} ms vs {t_sim*1e3:.2f} ms)"
    )
    section = {
        "processes": len(system.processes),
        "channels": len(system.channels),
        "labeling_ms": round(t_label * 1e3, 3),
        "simulation_ms": round(t_sim * 1e3, 3),
        "fraction_of_sim": round(fraction, 4),
    }
    _report["labeling"] = section
    benchmark.extra_info.update(section)
    REPORT.write_text(json.dumps(_report, indent=2) + "\n")
    print(
        f"\nlabeling {t_label*1e3:.2f} ms "
        f"({fraction:.1%} of a {t_sim*1e3:.1f} ms simulation)"
    )


def _timed(fn):
    """Wall time of ``fn()``, from an empty walk memo so that a simulation
    walks in full."""
    memos()["walk"].clear()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
