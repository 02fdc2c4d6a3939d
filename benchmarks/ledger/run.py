"""ERMES benchmark ledger: cold-process, layer-by-layer timings.

Run from the repository root::

    python3 benchmarks/ledger/run.py                          # all workloads
    python3 benchmarks/ledger/run.py --workload soc-sweep --seed 1 --seconds 25
    python3 benchmarks/ledger/run.py --trace 1                # per-layer spans
    python3 benchmarks/ledger/run.py --smoke                  # < 60 s, CI-sized
    python3 benchmarks/ledger/run.py --out ledger.json        # full record

Every repetition runs in a fresh worker process (``worker.py``), one at a
time, single-threaded, with ``ERMES_*`` scrubbed from its environment: a
closed loop with one client.  Repetitions of the selected workloads are
interleaved round-robin so machine drift hits all of them alike, until
each workload has used ``--seconds`` of wall time.  End-to-end metrics
come from untraced repetitions (median over them); with ``--trace 1`` one
extra traced repetition per workload gives the per-layer metrics.

Every metric is printed as ``name value unit``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every output passed its oracle, 1 when not, and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"

#: The keys of ``workloads.WORKLOADS``, which only workers import: this
#: process never imports the program it measures.
WORKLOADS = ("mpeg2-dse", "soc-sweep", "scal-analyze", "signoff")

#: Untraced metrics, all of which every workload reports; times are in
#: reference seconds (``probe.py``).
END_TO_END = (("work_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Printed beside them: each workload's phases, and the unscaled times.
PRINTED = tuple(
    (name, "s") for name in (
        "dse_s", "analyze_s", "analyze_exact_s", "verify_s", "simulate_s",
        "work_wall_s", "setup_wall_s",
    )
)

#: Layers whose self time is reported as a share of the traced wall time.
LAYERS = (
    "dse.sweep", "dse.explorer", "dse.problem", "ilp.solve",
    "perf.analyze", "perf.build_structure", "perf.instantiate",
    "tmg.analyze_event_graph", "model.analyze_system", "model.build_tmg",
    "tmg.analyze", "ordering.channel_ordering", "lint.preflight", "ir.lower",
    "absint.analyze", "absint.check_certificate", "sym.analyze_symmetry",
    "verify.verify_ordering", "verify.check_deadlock", "verify.stubborn_set",
    "verify.successor", "sym.canonicalize", "sim.simulate",
    "sim.simulator_run", "sim.batch_run",
)
CALLS = (
    "ilp.solve", "perf.analyze", "tmg.analyze_event_graph",
    "ordering.channel_ordering", "ir.lower", "absint.analyze",
    "sym.analyze_symmetry", "verify.verify_ordering", "sym.canonicalize",
)
#: Share of the traced wall time that may fall outside every layer span.
MAX_UNATTRIBUTED = 0.05
#: A traced repetition is budgeted as this multiple of an untraced one.
TRACED_COST = 1.3
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ERMES_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(*arguments: str) -> dict[str, Any]:
    """Run one worker to completion and return its JSON result."""
    completed = subprocess.run(
        [sys.executable, str(WORKER), *arguments],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise WorkerFailed(
            f"worker {' '.join(arguments)} exited with {completed.returncode}"
        )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def measure(
    names: list[str], seed: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, list[dict[str, Any]]]:
    """Round-robin untraced repetitions, then one traced one per workload."""
    reps: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    last = dict.fromkeys(names, 0.0)
    base = ["--seed", str(seed)] + (["--smoke"] if smoke else [])
    pending = list(names)
    while pending:
        for name in list(pending):
            next_cost = last[name] * (1 + (TRACED_COST if trace else 0))
            if reps[name] and (smoke or spent[name] + next_cost > seconds):
                pending.remove(name)
                continue
            oracle = [] if reps[name] else ["--oracle"]
            wall = time.perf_counter()
            rep = run_worker("--workload", name, *base, *oracle)
            reps[name].append(rep)
            # Checking is not measuring: the oracles' time is off budget.
            last[name] = time.perf_counter() - wall - rep["oracle_s"]
            spent[name] += last[name]
    if trace:
        for name in names:
            reps[name].append(run_worker("--workload", name, *base, "--trace"))
    return reps


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced: dict[str, Any], untraced_work: float
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of the traced repetition, and self-check failures."""
    by_name: dict[str, list[float]] = {}
    for parent, name, count, total, self_s in traced["spans"]:
        row = by_name.setdefault(name, [0, 0.0, 0.0])
        row[0] += count
        row[1] += total if parent != name else 0.0
        row[2] += self_s
    wall = by_name["bench.rep"][1]
    unattributed = by_name["bench.rep"][2]
    counts = traced["counts"]
    metrics: dict[str, tuple[float, str]] = {
        "setup.import_s": (by_name["setup.import"][2], "s"),
        "setup.inputs_s": (by_name["setup.inputs"][2], "s"),
    }
    zero = [0, 0.0, 0.0]
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (
            100 * by_name.get(layer, zero)[2] / wall, "%"
        )
    for layer in CALLS:
        metrics[f"{layer}_calls"] = (by_name.get(layer, zero)[0], "count")
    for name in ("ilp.nodes", "verify.states", "verify.inconclusive"):
        metrics[name] = (counts.get(name, 0), "count")
    for cache in ("results", "structures"):
        metrics[f"perf.{cache}_hit_rate"] = (ratio(
            counts.get(f"perf.{cache}.hits", 0),
            counts.get(f"perf.{cache}.hits", 0)
            + counts.get(f"perf.{cache}.misses", 0),
        ), "ratio")
    metrics["verify.states_per_s"] = (ratio(
        counts.get("verify.states", 0),
        by_name.get("verify.check_deadlock", zero)[1],
    ), "1/s")
    metrics["bench.traced_wall_s"] = (wall, "s")
    metrics["bench.unattributed_s"] = (unattributed, "s")
    metrics["bench.coverage"] = (1 - unattributed / wall, "ratio")
    metrics["bench.trace_overhead"] = (
        traced["work_s"] / untraced_work - 1, "ratio"
    )

    failures = [
        f"expected span {name} never fired"
        for name in traced["expected_spans"] if name not in by_name
    ]
    if unattributed > MAX_UNATTRIBUTED * wall:
        failures.append(
            f"unattributed {unattributed:.4f} s is over "
            f"{MAX_UNATTRIBUTED:.0%} of the traced wall time {wall:.4f} s"
        )
    partition = sum(row[2] for row in by_name.values())
    if abs(partition - wall) > 1e-6 * wall:
        failures.append(f"self times sum to {partition} s, wall is {wall} s")
    return metrics, failures


def rep_values(rep: dict[str, Any]) -> dict[str, float]:
    """One repetition's times (reference and wall seconds) and memory."""
    return {
        "work_s": rep["work_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        **rep["phases"],
        "work_wall_s": rep["work_wall"]["work_s"],
        "setup_wall_s": rep["setup_wall"]["setup_s"],
    }


def check(name: str, reps: list[dict[str, Any]]) -> list[str]:
    """Oracle, error and determinism failures of one workload's reps."""
    failures = [f"{name}: {error}" for rep in reps for error in rep["errors"]]
    failures += [f"{name}: oracle: {f}" for f in reps[0]["oracle"] or ()]
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        failures.append(
            f"{name}: outputs differ between repetitions of one seed "
            f"({len(digests)} distinct digests)"
        )
    return failures


def report(
    names: list[str], reps: dict[str, list[dict[str, Any]]], trace: bool
) -> tuple[dict[str, Any], list[str], dict[str, Any]]:
    """Print every metric; return the result object, failures and record."""
    prefix = len(names) > 1
    metrics: dict[str, Any] = {}
    failures: list[str] = []
    record: dict[str, Any] = {}
    for name in names:
        untraced = [rep for rep in reps[name] if not rep["traced"]]
        failures += check(name, reps[name])
        table = [rep_values(rep) for rep in untraced]
        stats: dict[str, Any] = {}
        for metric, unit in END_TO_END + PRINTED:
            values = [row[metric] for row in table if metric in row]
            if not values:
                continue
            stats[metric] = dict(summary(values), unit=unit)
            s = stats[metric]
            print(
                f"{name}.{metric} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g} "
                f"q3 {s['q3']:.6g} min {s['min']:.6g} max {s['max']:.6g} "
                f"n {s['n']})"
            )
            if not trace and (metric, unit) in END_TO_END:
                key = f"{name}.{metric}" if prefix else metric
                metrics[key] = {"value": s["median"], "unit": unit}
        first = untraced[0]
        quality = {
            "failed_frac": ratio(
                sum(r["failed"] for r in reps[name]),
                sum(r["attempted"] for r in reps[name]),
            ),
        }
        if first["verify_decided"][1]:
            quality["verify_decided_frac"] = ratio(*first["verify_decided"])
        if first["targets_met"][1]:
            quality["final_area"] = first["final_area"]
            quality["targets_met_frac"] = ratio(*first["targets_met"])
        for metric, value in quality.items():
            print(f"{name}.{metric} {value:.10g} "
                  f"{'area' if metric == 'final_area' else 'ratio'}")
        layers = {}
        if trace:
            traced = reps[name][-1]
            layers, trace_failures = layer_metrics(
                traced, stats["work_s"]["median"]
            )
            failures += [f"{name}: trace: {f}" for f in trace_failures]
            for metric, (value, unit) in layers.items():
                print(f"{name}.{metric} {value:.6g} {unit}")
                key = f"{name}.{metric}" if prefix else metric
                metrics[key] = {"value": value, "unit": unit}
        record[name] = {
            "end_to_end": stats, "quality": quality,
            "layers": {k: v[0] for k, v in layers.items()}, "reps": reps[name],
        }
    return metrics, failures, record


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict[str, Any]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="wall time of untraced repetitions per workload (default 30)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one repetition per workload at reduced sizes",
    )
    parser.add_argument("--out", type=Path, help="write the full record here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run_worker("--warmup")
        reps = measure(names, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (WorkerFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    metrics, failures, record = report(names, reps, bool(args.trace))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    attempted = sum(rep["attempted"] for runs in reps.values() for rep in runs)
    failed = sum(rep["failed"] for runs in reps.values() for rep in runs)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.write_text(json.dumps({
            "revision": git_revision(), "seed": args.seed, "smoke": args.smoke,
            "seconds": args.seconds, "machine": machine(), "failures": failures,
            "workloads": record, **result,
        }, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
