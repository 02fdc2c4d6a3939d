"""SYM — structural symmetry: quotient search, orbit dedup, labeling cost.

Three claims.  First, quotient-space verification composes with the
stubborn-set reduction and pays on genuinely symmetric designs: on an
8-stage rotationally symmetric ring with per-stage testbenches the
quotient search must explore at least 4x fewer states than POR alone,
with the same verdict.  Second, orbit-canonical deduplication of the
ordering space cuts exhaustive-search analyses at least 2x while the
reported aggregates stay bit-identical to the plain sweep.  Third,
canonical labeling is cheap enough to run by default: analyzing a
60-process SoC costs under 5% of one simulation of that SoC.

Wall time rides beside the state counts: the quotient benchmark records
the quotient search's median ``wall_s`` and ``states_per_s`` (and the
POR-only search's median ``por_wall_s``) in ``extra_info``.

The measurements are published as ``BENCH_sym.json`` for CI to upload.
"""

import json
import statistics
import time
from pathlib import Path

from repro.core import SystemBuilder, synthetic_soc
from repro.core.system import ChannelOrdering
from repro.ir import lower
from repro.ordering import channel_ordering
from repro.ordering.exhaustive import exhaustive_search
from repro.sim import Simulator
from repro.sym import analyze_symmetry
from repro.verify import check_deadlock

#: Enforced floor on POR-only vs POR+quotient explored states (measured
#: ~6.3x on the 8-stage ring; 4x leaves headroom for checker changes).
MIN_QUOTIENT_REDUCTION = 4.0
#: Enforced floor on orderings-evaluated vs canonical classes (measured
#: 16x on the two-lane family; 2x is the acceptance bar).
MIN_DEDUP_REDUCTION = 2.0
MAX_LABELING_FRACTION = 0.05
SIM_ITERATIONS = 60
REPORT = Path(__file__).resolve().parents[1] / "BENCH_sym.json"

_report: dict = {"experiment": "SYM"}


def ring_with_taps(k=8, capacity=2, tokens=1):
    """k-stage rotationally symmetric ring, each stage with src + snk.

    Channels are declared grouped by role (all in*, all ring*, all
    out*) so every stage's statement order is aligned with the rotation
    and the strict automorphism group contains Z_k.  Capacity-2 ring
    channels carrying one token keep many interleavings live at once —
    the regime where the stubborn-set reduction alone is weak and the
    quotient earns its keep.
    """
    b = SystemBuilder(f"ringtap{k}")
    for i in range(k):
        b.source(f"src{i}", latency=1)
        b.process(f"st{i}", latency=1)
        b.sink(f"snk{i}", latency=1)
    for i in range(k):
        b.channel(f"in{i}", f"src{i}", f"st{i}", capacity=1)
    for i in range(k):
        b.channel(
            f"ring{i}", f"st{i}", f"st{(i + 1) % k}",
            capacity=capacity, initial_tokens=tokens,
        )
    for i in range(k):
        b.channel(f"out{i}", f"st{i}", f"snk{i}", capacity=1)
    return b.build()


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
    system = ring_with_taps(8)
    plain = check_deadlock(system, por=True)
    por_wall = statistics.median(
        _timed(lambda: check_deadlock(system, por=True)) for _ in range(3)
    )
    walls = []

    def timed_check():
        start = time.perf_counter()
        result = check_deadlock(system, por=True, sym=True)
        walls.append(time.perf_counter() - start)
        return result

    quotient = benchmark.pedantic(
        timed_check, rounds=3, iterations=1, warmup_rounds=0
    )
    wall = statistics.median(walls)
    assert plain.conclusive and quotient.conclusive
    assert quotient.deadlocked == plain.deadlocked
    ratio = plain.states_explored / quotient.states_explored
    assert ratio >= MIN_QUOTIENT_REDUCTION, (
        f"quotient must explore >= {MIN_QUOTIENT_REDUCTION}x fewer states "
        f"than POR alone ({plain.states_explored} vs "
        f"{quotient.states_explored})"
    )
    section = {
        "stages": 8,
        "por_states": plain.states_explored,
        "quotient_states": quotient.states_explored,
        "reduction_x": round(ratio, 2),
        "sym_merged": quotient.sym_merged,
        "verdicts_agree": True,
        "wall_s": round(wall, 5),
        "states_per_s": round(quotient.states_explored / wall),
        "por_wall_s": round(por_wall, 5),
    }
    _report["quotient"] = section
    benchmark.extra_info.update(section)
    print(
        f"\nPOR {plain.states_explored} states in {por_wall*1e3:.1f} ms | "
        f"POR+sym {quotient.states_explored} states in {wall*1e3:.1f} ms | "
        f"x{ratio:.2f} reduction"
    )


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
