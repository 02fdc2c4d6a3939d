"""GEN — generated workload suite: the full flow over seeded families.

Three claims.  First, every registered workload family regenerates
deterministically from ``(seed, size)`` and survives the entire flow —
lint clean of errors, Algorithm 1 ordering, exhaustive deadlock
verification (POR + symmetry), and exact cycle-time analysis.  Second,
replication declared by the composition layer arrives at ERM701 as
*declared* families (the diagnostic says so) rather than being
rediscovered by canonical labeling.  Third, the declared families seed
the explorer's orbit dedup: sweeping three targets over an OFDM workload
with a shared orbit set machine-checks at least one ordering and serves
at least one later verification from the orbit, metered on
``dse.sym.verify_deduped``.

The measurements are published as ``BENCH_workloads.json`` for CI.
"""

import json
from pathlib import Path

from repro.core.system import ChannelOrdering
from repro.dse import SystemConfiguration
from repro.dse.sweep import sweep_targets
from repro.hls import Implementation, ImplementationLibrary, ParetoSet
from repro.lint import Severity, lint_system
from repro.model import analyze_system
from repro.obs import collect
from repro.ordering import channel_ordering
from repro.verify import check_deadlock
from repro.workloads import family_names, generate

#: Families the pipeline bench sweeps (all of them; the acceptance floor
#: is three).
PIPELINE_SEED = 7
VERIFY_BUDGET_STATES = 200_000
VERIFY_BUDGET_SECONDS = 30.0
REPORT = Path(__file__).resolve().parents[1] / "BENCH_workloads.json"

_report: dict = {"experiment": "GEN"}


def _run_pipeline(family: str) -> dict:
    """lint -> order -> verify -> analyze for one generated workload."""
    workload = generate(family, seed=PIPELINE_SEED)
    system = workload.system
    lint = lint_system(system)
    assert not lint.has_at_least(Severity.ERROR), (
        f"{workload.name} must lint clean of errors"
    )
    ordering = channel_ordering(system)
    verdict = check_deadlock(
        system,
        ordering,
        por=True,
        sym=True,
        budget_states=VERIFY_BUDGET_STATES,
        budget_seconds=VERIFY_BUDGET_SECONDS,
    )
    assert verdict.conclusive and not verdict.deadlocked, (
        f"{workload.name} must verify deadlock-free "
        f"(verdict {verdict.verdict.value})"
    )
    cycle_time = analyze_system(system, ordering).cycle_time
    return {
        "workload": workload.name,
        "processes": len(system.process_names),
        "channels": len(system.channel_names),
        "declared_families": [f.name for f in system.declared_families],
        "verify_states": verdict.states_explored,
        "cycle_time": float(cycle_time),
    }


def test_bench_workloads_pipeline(benchmark):
    rows = [_run_pipeline(family) for family in family_names()]
    assert len(rows) >= 3, "the suite must cover at least three families"
    benchmark.pedantic(
        _run_pipeline, args=("ofdm-rx",), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    _report["pipeline"] = rows
    benchmark.extra_info.update({"families": len(rows)})
    for row in rows:
        print(
            f"\n{row['workload']}: {row['processes']}p/{row['channels']}c "
            f"verified in {row['verify_states']} states, "
            f"cycle time {row['cycle_time']:g}, "
            f"families {row['declared_families'] or '(none)'}"
        )


def test_bench_workloads_declared_not_rediscovered(benchmark):
    def declared_erm701() -> dict:
        counts: dict[str, int] = {}
        for family in ("ofdm-rx", "noc-torus", "butterfly"):
            workload = generate(family, seed=PIPELINE_SEED)
            assert workload.system.declared_families, (
                f"{workload.name} must ship declared families"
            )
            result = lint_system(workload.system)
            findings = [
                d for d in result.diagnostics if d.rule == "ERM701"
            ]
            assert findings, f"{workload.name} must report ERM701"
            for diagnostic in findings:
                assert "declared by the composition layer" in (
                    diagnostic.message
                ), (
                    f"{workload.name}: ERM701 must report the declared "
                    f"family, not a rediscovered orbit: "
                    f"{diagnostic.message}"
                )
            counts[workload.name] = len(findings)
        return counts

    counts = benchmark.pedantic(
        declared_erm701, rounds=3, iterations=1, warmup_rounds=0
    )
    _report["declared_families"] = counts
    benchmark.extra_info.update(counts)
    print("\nERM701 declared-family findings: " + ", ".join(
        f"{name}={n}" for name, n in counts.items()
    ))


def test_bench_workloads_orbit_dedup(benchmark):
    workload = generate("ofdm-rx", seed=3, size=3)
    system = workload.system
    # Two implementations per worker; replicated lanes share base
    # latencies by construction, so lane-permuted candidates stay
    # isomorphic and the orbit dedup has something to collapse.
    library = ImplementationLibrary(
        ParetoSet.from_points(
            process.name,
            [
                Implementation(
                    f"{process.name}.small", max(process.latency, 1) * 2,
                    10.0,
                ),
                Implementation(
                    f"{process.name}.fast", max(process.latency, 1), 20.0
                ),
            ],
        )
        for process in system.workers()
    )
    config = SystemConfiguration.initial(
        system,
        library,
        ordering=ChannelOrdering.declaration_order(system),
        pick="smallest",
    )
    initial_ct = float(
        analyze_system(
            system,
            config.ordering,
            process_latencies=config.process_latencies(),
        ).cycle_time
    )
    targets = [initial_ct * 0.9, initial_ct * 0.7, initial_ct * 0.5]

    def swept() -> tuple[int, int, int]:
        seen: set[str] = set()
        with collect() as registry:
            points = sweep_targets(
                config,
                targets=targets,
                batch=False,
                sym_seen=seen,
            )
        assert len(points) == len(targets)
        runs = registry.counter("dse.verify.runs").value
        deduped = registry.counter("dse.sym.verify_deduped").value
        return runs, deduped, len(seen)

    runs, deduped, classes = benchmark.pedantic(
        swept, rounds=3, iterations=1, warmup_rounds=0
    )
    assert deduped >= 1, (
        "sweeping a replicated DSL workload must serve at least one "
        f"verification from the orbit set (runs={runs}, "
        f"deduped={deduped})"
    )
    assert classes <= runs
    section = {
        "workload": workload.name,
        "verify_runs": runs,
        "verify_deduped": deduped,
        "orbit_classes": classes,
    }
    _report["orbit_dedup"] = section
    benchmark.extra_info.update(section)
    REPORT.write_text(json.dumps(_report, indent=2) + "\n")
    print(
        f"\n{workload.name}: {runs} verify runs, {deduped} served from "
        f"the shared orbit set ({classes} canonical classes)"
    )
