"""The experiment registry: every paper artifact this repository regenerates.

One authoritative list mapping the paper's tables/figures (plus this
reproduction's ablations) to the benchmark that regenerates each and the
claim it checks.  The CLI surfaces it (``ermes experiments``) and the
benchmark suite asserts it stays in sync with the files on disk.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One regenerable paper artifact.

    Attributes:
        id: Short experiment id used across DESIGN.md / EXPERIMENTS.md.
        artifact: The paper table/figure/claim it corresponds to.
        claim: The paper's headline number(s), condensed.
        bench: Benchmark file (relative to ``benchmarks/``) regenerating it.
    """

    id: str
    artifact: str
    claim: str
    bench: str


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        id="FIG2",
        artifact="Fig. 2 / Section 2 (motivating example)",
        claim="36 orderings; Listing-1 order deadlocks (P2-d, P6-g, P5-f)",
        bench="test_bench_fig2_motivating.py",
    ),
    Experiment(
        id="FIG3",
        artifact="Fig. 3 (TMG model of P2)",
        claim="chain a->L2->b,d,f; suboptimal cycle time 20 (throughput 0.05)",
        bench="test_bench_fig3_tmg_model.py",
    ),
    Experiment(
        id="FIG4",
        artifact="Fig. 4 (channel-ordering algorithm)",
        claim="labels per panel (b); optimum CT 12, 40% better than 20",
        bench="test_bench_fig4_ordering.py",
    ),
    Experiment(
        id="TAB1",
        artifact="Table 1 (MPEG-2 setup)",
        claim="26 processes, 60 channels, 171 Pareto points, latencies 1..5280",
        bench="test_bench_table1_setup.py",
    ),
    Experiment(
        id="M1",
        artifact="Section 6, M1 experiment",
        claim="CT 1906 KCycles; reordering alone -5%, area unchanged",
        bench="test_bench_m1_reordering.py",
    ),
    Experiment(
        id="FIG6L",
        artifact="Fig. 6 left (timing optimization, TCT=2000 KCycles)",
        claim="meets TCT from M2 (3597 KCycles); ~2x speed-up, area overhead",
        bench="test_bench_fig6_timing.py",
    ),
    Experiment(
        id="FIG6R",
        artifact="Fig. 6 right (area recovery, TCT=4000 KCycles)",
        claim="-32.46% area vs M2, <1% timing degradation",
        bench="test_bench_fig6_area.py",
    ),
    Experiment(
        id="SCAL",
        artifact="Section 6, scalability analysis",
        claim="10,000 processes / 15,000 channels within minutes",
        bench="test_bench_scalability.py",
    ),
    Experiment(
        id="SWEEP",
        artifact="extension: system-level Pareto frontier",
        claim="richer exploration: latency/area frontier via target sweep",
        bench="test_bench_pareto_sweep.py",
    ),
    Experiment(
        id="BUS",
        artifact="extension: interconnect width optimization",
        claim="cheapest per-channel bus widths holding M1's cycle time",
        bench="test_bench_bus_widths.py",
    ),
    Experiment(
        id="ABL",
        artifact="extension: design-choice ablations",
        claim="Howard vs the Lawler and enumeration oracles; the integer "
        "Howard kernel vs its Fraction reference; branch-and-bound vs the "
        "knapsack-DP and SciPy oracles; annealing vs Algorithm 1",
        bench="test_bench_ablations.py",
    ),
    Experiment(
        id="LINT",
        artifact="extension: static design analysis",
        claim="full rule catalog over a 300-process SoC in < 1 s; "
        "structural pre-flight in milliseconds",
        bench="test_bench_lint.py",
    ),
    Experiment(
        id="CACHE",
        artifact="extension: memoized incremental analysis",
        claim=">=3x on replayed DSE analysis streams, results bit-identical "
        "to the uncached path",
        bench="test_bench_analysis_cache.py",
    ),
    Experiment(
        id="VERIFY",
        artifact="extension: exhaustive deadlock verification",
        claim="stubborn-set POR >= 5x fewer states than naive on a "
        "6-stage buffered pipeline; explorer-scale systems verify "
        "in < 1 s",
        bench="test_bench_verify.py",
    ),
    Experiment(
        id="OBS",
        artifact="extension: observability layer",
        claim="tracing/metrics off by default cost < 15% simulator "
        "overhead, results bit-identical with and without sinks",
        bench="test_bench_obs_overhead.py",
    ),
    Experiment(
        id="IR",
        artifact="extension: lowered core IR",
        claim="compile once, run everywhere: lowering < 5% of one "
        "simulation, array simulator >= 1.5x the interpretive engine, "
        "results bit-identical",
        bench="test_bench_ir.py",
    ),
    Experiment(
        id="ABSINT",
        artifact="extension: abstract-interpretation static analysis",
        claim="300-process buffered pipeline and 2,000-process synthetic "
        "SoC under Algorithm 1 each analysed (bounds + certificate) < 1s",
        bench="test_bench_absint.py",
    ),
    Experiment(
        id="SYM",
        artifact="extension: structural symmetry analysis",
        claim="quotient search reaches POR's verdict on 8- and 12-stage "
        "symmetric rings, POR alone within 200 and 400 states; "
        "labeling < 5% of one simulation",
        bench="test_bench_sym.py",
    ),
    Experiment(
        id="GEN",
        artifact="extension: compositional DSL + generated workload suite",
        claim="five seeded families regenerate bit-identically and pass "
        "lint/order/verify/analyze; replication reaches ERM701 declared, "
        "not rediscovered; declared families feed the explorer's orbit "
        "dedup (>= 1 verification served from the orbit per sweep)",
        bench="test_bench_workloads.py",
    ),
    Experiment(
        id="SIMD",
        artifact="extension: batched vectorized simulation",
        claim="64 DSE candidates in lock-step over one compiled IR "
        ">= 5x faster than sequential runs, every lane bit-identical "
        "to the reference engine",
        bench="test_bench_simd.py",
    ),
)


def experiment(id: str) -> Experiment:
    """Look an experiment up by id (case-insensitive)."""
    for entry in EXPERIMENTS:
        if entry.id.lower() == id.lower():
            return entry
    raise KeyError(id)


def format_registry() -> str:
    """Fixed-width rendering of the registry."""
    lines = [f"{'id':<6} {'artifact':<48} bench"]
    for entry in EXPERIMENTS:
        lines.append(f"{entry.id:<6} {entry.artifact:<48} {entry.bench}")
        lines.append(f"{'':<6} claim: {entry.claim}")
    return "\n".join(lines) + "\n"
