"""SYM — structural symmetry: quotient search, orbit dedup, labeling cost.

Three claims.  First, the quotient-space search composes with the
stubborn-set reduction: on 8- and 12-stage rotationally symmetric rings
with per-stage testbenches it reaches the same verdict as POR alone,
and POR alone stays within its pinned state bounds (200 and 400
states).  Since the reduction fires one action per state, the quotient
no longer saves states on these rings; both searches' states and wall
times are recorded side by side.  Second, orbit-canonical deduplication
of the ordering space cuts exhaustive-search analyses at least 2x while
the reported aggregates stay bit-identical to the plain sweep.  Third,
canonical labeling is cheap enough to run by default: analyzing a
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

from repro.core import SystemBuilder, synthetic_soc
from repro.ir import lower
from repro.ordering import channel_ordering
from repro.ordering.exhaustive import exhaustive_search
from repro.sim import Simulator
from repro.sym import analyze_symmetry
from repro.verify import check_deadlock
from tests.verify.systems import ring_with_taps

#: Enforced ceiling on POR-only explored states per ring size (measured
#: 159 and 334).
POR_STATE_BOUNDS = {8: 200, 12: 400}
#: Enforced floor on orderings-evaluated vs canonical classes (measured
#: 16x on the two-lane family; 2x is the acceptance bar).
MIN_DEDUP_REDUCTION = 2.0
MAX_LABELING_FRACTION = 0.05
SIM_ITERATIONS = 60
REPORT = Path(__file__).resolve().parents[1] / "BENCH_sym.json"

_report: dict = {"experiment": "SYM"}


def two_port_lanes(lanes=2):
    """Lanes whose worker reads/writes an interchangeable A/B pair."""
    b = SystemBuilder(f"twolanes{lanes}")
    for i in range(lanes):
        b.source(f"srcA{i}", latency=1)
        b.source(f"srcB{i}", latency=1)
        b.process(f"w{i}", latency=3)
        b.sink(f"snkA{i}", latency=1)
        b.sink(f"snkB{i}", latency=1)
    for i in range(lanes):
        b.channel(f"a{i}", f"srcA{i}", f"w{i}", capacity=2)
        b.channel(f"b{i}", f"srcB{i}", f"w{i}", capacity=2)
    for i in range(lanes):
        b.channel(f"oa{i}", f"w{i}", f"snkA{i}", capacity=2)
        b.channel(f"ob{i}", f"w{i}", f"snkB{i}", capacity=2)
    return b.build()


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


def test_bench_sym_ordering_dedup(benchmark):
    system = two_port_lanes(2)
    plain = exhaustive_search(system)
    deduped = benchmark.pedantic(
        exhaustive_search, args=(system,), kwargs={"sym_dedup": True},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    # Bit-identical aggregates: dedup reuses class results, never skips.
    assert deduped.total_orderings == plain.total_orderings
    assert deduped.deadlocking_orderings == plain.deadlocking_orderings
    assert deduped.best_cycle_time == plain.best_cycle_time
    assert deduped.worst_cycle_time == plain.worst_cycle_time
    assert deduped.best_ordering == plain.best_ordering
    analyses = deduped.sym_classes
    ratio = deduped.total_orderings / analyses
    assert ratio >= MIN_DEDUP_REDUCTION, (
        f"orbit dedup must cut analyses >= {MIN_DEDUP_REDUCTION}x "
        f"({deduped.total_orderings} orderings vs {analyses} classes)"
    )
    section = {
        "orderings": deduped.total_orderings,
        "canonical_classes": analyses,
        "deduped": deduped.sym_deduped,
        "reduction_x": round(ratio, 2),
        "bit_identical": True,
    }
    _report["ordering_dedup"] = section
    benchmark.extra_info.update(section)
    print(
        f"\n{deduped.total_orderings} orderings | {analyses} canonical "
        f"classes | x{ratio:.2f} fewer analyses"
    )


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
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
