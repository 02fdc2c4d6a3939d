"""One cold repetition of one ledger workload.

``run.py`` starts this script in a fresh interpreter for every
repetition, so each one pays the imports and starts with empty
process-wide memos (IR lowering, lint preflight, absint), exactly as one
``ermes`` invocation does.  The last line of standard output is one JSON
object describing the repetition.  Times are reported twice: as measured
(``*_wall``) and in reference seconds (see ``probe.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import tracing
from probe import SpeedProbe

SRC = Path(__file__).resolve().parents[2] / "src"


def _import_program() -> None:
    for module in tracing.MODULES:
        importlib.import_module(module)
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument(
        "--warmup", action="store_true",
        help="only import the program (fills the bytecode and file caches)",
    )
    args = parser.parse_args(argv)
    if args.warmup:
        _import_program()
        return 0

    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer is not None else tracing.no_span
    with SpeedProbe() as probe, span("bench.rep"):
        start = time.perf_counter()
        with span("setup.import"):
            _import_program()
            workloads = importlib.import_module("workloads")
            if tracer is not None:
                tracing.install(tracer)
        import_s = time.perf_counter() - start
        workload = workloads.WORKLOADS[args.workload]
        with span("setup.inputs"):
            inputs = workload.build(args.seed, args.smoke)
        setup_s = time.perf_counter() - start
        setup_end = probe.mark()
        rep = workloads.Rep(span, probe.mark)
        results = workload.run(inputs, rep)
    setup_factor = probe.factor(0, setup_end)
    run_factor = probe.factor(setup_end, probe.mark(), setup_factor)
    phases: dict[str, float] = {}
    walls: dict[str, float] = {}
    for phase, first, end, wall in rep.ops:
        walls[phase] = walls.get(phase, 0.0) + wall
        phases[phase] = (
            phases.get(phase, 0.0) + wall * probe.factor(first, end, run_factor)
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    oracle = workload.oracle(inputs, results) if args.oracle else None
    oracle_s = time.perf_counter() - start
    outputs = json.dumps(rep.outputs, sort_keys=True, default=str)
    counts = dict(rep.counts)
    if tracer is not None:
        counts.update(tracer.counts)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "traced": tracer is not None,
        "setup_s": setup_s * setup_factor,
        "setup_wall": {
            "setup_s": setup_s, "import_s": import_s, "inputs_s": setup_s - import_s,
        },
        "work_s": sum(phases.values()),
        "phases": phases,
        "work_wall": {"work_s": sum(walls.values()), **walls},
        "speed": {
            "samples": probe.mark(),
            "setup_factor": setup_factor,
            "run_factor": run_factor,
        },
        "oracle_s": oracle_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rep.attempted,
        "failed": len(rep.errors) + len(oracle or ()),
        "errors": rep.errors,
        "oracle": oracle,
        "digest": hashlib.sha256(outputs.encode()).hexdigest(),
        "final_area": rep.final_area,
        "targets_met": rep.targets_met,
        "verify_decided": rep.verify_decided,
        "counts": counts,
        "expected_spans": workload.expected_spans,
        "spans": tracer.rows() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
