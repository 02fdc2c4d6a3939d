"""``ermes`` — the command-line front end of the reproduction.

Mirrors the workflow of the paper's prototype CAD tool: load a system,
analyze its performance, check for deadlock, compute the optimized channel
ordering, simulate, and run the canned experiments (the Fig. 2–4
motivating example, the MPEG-2 case study, the scalability sweep).

Examples::

    ermes demo                         # the paper's motivating example
    ermes analyze design.json          # cycle time + critical cycle
    ermes order design.json -o ord.json
    ermes check design.json --ordering ord.json
    ermes verify design.json --budget-states 200000
    ermes simulate design.json --iterations 200
    ermes simulate design.json --batch 16   # vectorized what-if lanes
    ermes trace design.json --format perfetto -o trace.json
    ermes profile design.json --json   # instrumented DSE run
    ermes mpeg2 --experiment m1        # Section 6 experiments
    ermes scalability --sizes 100,1000,10000
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import (
    ChannelOrdering,
    load_ordering,
    load_system,
    motivating_deadlock_ordering,
    motivating_example,
    motivating_suboptimal_ordering,
    save_ordering,
    synthetic_soc,
)
from repro.errors import DeadlockError, ReproError, ValidationError
from repro.model import analyze_system, deadlock_cycle
from repro.ordering import channel_ordering, declaration_ordering
from repro.sim import default_watch, simulate


def _load_ordering_arg(system, path: str | None) -> ChannelOrdering:
    if path is None:
        return declaration_ordering(system)
    ordering = load_ordering(path)
    ordering.validate(system)
    return ordering


def _write_text(text: str, path: str, what: str) -> None:
    """Write an output file, mapping I/O failures to a coded exit.

    Every ``-o`` path funnels through here so an unwritable destination
    reports ``error: ...`` and exits 2 (the :class:`ValidationError`
    contract of :mod:`repro.core.serialization`) instead of dumping an
    ``OSError`` traceback.
    """
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        raise ValidationError(
            f"cannot write {what} file {path}: {error}"
        ) from error


def _parse_rule_list(raw: str | None) -> list[str] | None:
    """Parse a comma-separated rule selector list (``--select``/``--ignore``).

    Tokens are stripped and empty entries dropped, so
    ``--select "ERM101, ERM201"`` and a trailing comma both work; an
    all-empty value (``""``, ``","``) means "no filter", same as the
    flag being absent.
    """
    if raw is None:
        return None
    tokens = [token.strip() for token in raw.split(",")]
    cleaned = [token for token in tokens if token]
    return cleaned or None


def _symmetry_doc(ir) -> dict:
    """JSON-friendly orbit report of a lowered program's symmetry."""
    from repro.sym import analyze_symmetry

    analysis = analyze_symmetry(ir)
    return {
        "canonical_hash": analysis.canonical_hash,
        "complete": analysis.complete,
        "generators": len(analysis.generators),
        "process_orbits": [
            [ir.processes[pid] for pid in orbit]
            for orbit in analysis.process_orbits
        ],
        "channel_orbits": [
            [ir.channels[cid] for cid in orbit]
            for orbit in analysis.channel_orbits
        ],
        "replicated_process_orbits": [
            [ir.processes[pid] for pid in orbit]
            for orbit in analysis.replicated_process_orbits
        ],
        "replicated_channel_orbits": [
            [ir.channels[cid] for cid in orbit]
            for orbit in analysis.replicated_channel_orbits
        ],
    }


def _format_symmetry(ir) -> str:
    """Text orbit report of a lowered program's symmetry."""
    from repro.sym import analyze_symmetry

    analysis = analyze_symmetry(ir)
    lines = ["symmetry:"]
    lines.append(f"  canonical hash: {analysis.canonical_hash}")
    if not analysis.complete:
        lines.append(
            "  labeling budget exhausted: hash falls back to the "
            "structural hash; orbits below may be under-merged"
        )
    lines.append(f"  automorphism generators: {len(analysis.generators)}")
    replicated_p = analysis.replicated_process_orbits
    replicated_c = analysis.replicated_channel_orbits
    if not replicated_p and not replicated_c:
        lines.append("  no replicated families (trivial symmetry)")
        return "\n".join(lines) + "\n"
    if replicated_p:
        lines.append("  replicated process families:")
        for orbit in replicated_p:
            members = ", ".join(ir.processes[pid] for pid in orbit)
            lines.append(f"    [{len(orbit)}x] {members}")
    if replicated_c:
        lines.append("  replicated channel families:")
        for orbit in replicated_c:
            members = ", ".join(ir.channels[cid] for cid in orbit)
            lines.append(f"    [{len(orbit)}x] {members}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.absint import analyze as absint_analyze
    from repro.absint import format_result, result_to_dict

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    static = absint_analyze(system, ordering)

    symmetry_ir = None
    if args.symmetry:
        from repro.ir import lower

        symmetry_ir = lower(system, ordering)

    if static.token_free_cycle is not None:
        # No cycle time exists for a deadlocked configuration; the
        # static report (with the witness cycle) is the whole answer.
        if args.format == "json":
            payload = {
                "system": system.name,
                "performance": None,
                "static": result_to_dict(static),
            }
            if symmetry_ir is not None:
                payload["symmetry"] = _symmetry_doc(symmetry_ir)
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(format_result(static), end="")
            if symmetry_ir is not None:
                print(_format_symmetry(symmetry_ir), end="")
        print(
            f"deadlock: {system.name!r} has a token-free cycle; "
            "run `ermes lint` for the diagnosis",
            file=sys.stderr,
        )
        return 1

    performance = analyze_system(system, ordering)
    if args.format == "json":
        payload = {
            "system": system.name,
            "performance": {
                "cycle_time": float(performance.cycle_time),
                "throughput": float(performance.throughput),
                "critical_processes": list(performance.critical_processes),
                "critical_channels": list(performance.critical_channels),
            },
            "static": result_to_dict(static),
        }
        if symmetry_ir is not None:
            payload["symmetry"] = _symmetry_doc(symmetry_ir)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"system:            {system.name}")
    print(f"cycle time:        {performance.cycle_time}")
    print(f"throughput:        {float(performance.throughput):.6g} items/cycle")
    print(f"critical processes: {', '.join(performance.critical_processes)}")
    print(f"critical channels:  {', '.join(performance.critical_channels)}")
    print()
    print(format_result(static), end="")
    if symmetry_ir is not None:
        print()
        print(_format_symmetry(symmetry_ir), end="")
    return 0


def _cmd_ir(args: argparse.Namespace) -> int:
    import json

    from repro.ir import KIND_ORDER, OP_NAMES, lower

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    ir = lower(system, ordering)

    if args.format == "json":
        doc = {
            "system": ir.system_name,
            "structural_hash": ir.structural_hash,
            "processes": [
                {
                    "pid": pid,
                    "name": name,
                    "kind": KIND_ORDER[ir.process_kinds[pid]].value,
                    "program": [
                        {"op": OP_NAMES[op], "arg": arg}
                        for op, arg in zip(ir.op_kinds[pid], ir.op_args[pid])
                    ],
                    "first_marked": ir.first_marked[pid],
                }
                for pid, name in enumerate(ir.processes)
            ],
            "channels": [
                {
                    "cid": cid,
                    "name": name,
                    "producer": ir.processes[ir.producers[cid]],
                    "consumer": ir.processes[ir.consumers[cid]],
                    "latency": ir.channel_latencies[cid],
                    "capacity": ir.capacities[cid],
                    "initial_tokens": ir.initial_tokens[cid],
                    "buffered": ir.buffered[cid],
                    "effective_capacity": ir.effective_capacities[cid],
                }
                for cid, name in enumerate(ir.channels)
            ],
            "symmetry": _symmetry_doc(ir),
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [
            f"system:          {ir.system_name}",
            f"structural hash: {ir.structural_hash}",
            f"processes: {ir.n_processes}, channels: {ir.n_channels}, "
            f"statements: {ir.total_statements()}",
            "",
            "processes (* marks the statement holding the initial token):",
        ]
        for pid, name in enumerate(ir.processes):
            kind = KIND_ORDER[ir.process_kinds[pid]].value
            program = " ".join(
                (
                    stmt_kind
                    if stmt_kind == "compute"
                    else f"{stmt_kind}({target})"
                )
                + ("*" if i == ir.first_marked[pid] else "")
                for i, (stmt_kind, target) in enumerate(ir.statements_of(pid))
            )
            lines.append(f"  [{pid}] {name} ({kind}): {program}")
        lines.append("")
        lines.append("channels:")
        for cid, name in enumerate(ir.channels):
            route = (
                f"{ir.processes[ir.producers[cid]]} -> "
                f"{ir.processes[ir.consumers[cid]]}"
            )
            if ir.buffered[cid]:
                shape = (
                    f"fifo capacity {ir.effective_capacities[cid]}, "
                    f"initial tokens {ir.initial_tokens[cid]}"
                )
            else:
                shape = "rendezvous"
            lines.append(
                f"  [{cid}] {name}: {route}, "
                f"latency {ir.channel_latencies[cid]}, {shape}"
            )
        lines.append("")
        lines.append(_format_symmetry(ir).rstrip("\n"))
        text = "\n".join(lines) + "\n"

    if args.output:
        _write_text(text, args.output, "ir")
        print(f"ir written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    initial = _load_ordering_arg(system, args.ordering)
    before = None
    try:
        before = analyze_system(system, initial).cycle_time
    except DeadlockError:
        print("initial ordering deadlocks; computing a live one")
    ordering = channel_ordering(system, initial_ordering=initial)
    after = analyze_system(system, ordering).cycle_time
    for process in system.process_names:
        gets = ordering.gets_of(process)
        puts = ordering.puts_of(process)
        if gets or puts:
            print(f"{process}: gets={list(gets)} puts={list(puts)}")
    if before is not None:
        gain = 1 - float(after) / float(before)
        print(f"cycle time: {before} -> {after}  ({gain:+.2%})")
    else:
        print(f"cycle time: deadlock -> {after}")
    if args.output:
        save_ordering(ordering, args.output)
        print(f"ordering written to {args.output}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.ir import lower
    from repro.lint import format_witness
    from repro.model import build_structure

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    wait = build_structure(lower(system, ordering)).circular_wait
    if wait is None:
        print("deadlock-free")
        return 0
    print("DEADLOCK: circular wait through " + " -> ".join(wait.cycle))
    print("  " + format_witness(ordering, wait.statements))
    print("run `ermes lint` for the full diagnosis, or `ermes order` "
          "for a live ordering")
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.verify import Verdict, check_deadlock

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    result = check_deadlock(
        system,
        ordering,
        por=not args.no_por,
        sym=args.sym,
        budget_states=args.budget_states,
        budget_seconds=args.budget_seconds,
    )

    if args.format == "json":
        payload: dict[str, object] = {
            "system": system.name,
            "verdict": result.verdict.value,
            "reason": result.reason,
            "states_explored": result.states_explored,
            "transitions_fired": result.transitions_fired,
            "por": result.por,
            "por_pruned": result.por_pruned,
            "sym": result.sym,
            "sym_merged": result.sym_merged,
            "state_space_bound": result.state_space_bound,
            "elapsed_s": result.elapsed_s,
            "budget_states": result.budget_states,
            "budget_seconds": result.budget_seconds,
        }
        if result.witness is not None:
            witness: dict[str, object] = {
                "blocked": [list(pair) for pair in result.witness.blocked],
                "cycle": list(result.witness.cycle),
            }
            if args.trace:
                witness["schedule"] = [
                    action.format() for action in result.witness.schedule
                ]
            payload["witness"] = witness
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"system: {system.name}")
        print(result.format())
        if args.trace and result.witness is not None:
            print("full schedule:")
            for step, action in enumerate(result.witness.schedule):
                print(f"  {step + 1:>4}. {action.format()}")

    if result.verdict is Verdict.DEADLOCKED:
        return 1
    if result.verdict is Verdict.INCONCLUSIVE:
        return 3
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        Severity,
        apply_fixes,
        lint_system,
        render_json,
        render_sarif,
        render_text,
    )

    system = load_system(args.system)
    ordering = None
    if args.ordering:
        ordering = load_ordering(args.ordering)
    select = _parse_rule_list(args.select)
    ignore = _parse_rule_list(args.ignore)
    result = lint_system(
        system, ordering, library=None, select=select, ignore=ignore
    )

    if args.fix:
        output = args.output or args.ordering
        if output is None:
            print("error: --fix needs --ordering or -o/--output to know "
                  "where to write the corrected ordering", file=sys.stderr)
            return 2
        outcome = apply_fixes(system, result.ordering, result.diagnostics)
        if outcome.changed:
            save_ordering(outcome.ordering, output)
            print(f"applied {len(outcome.applied)} fix(es) "
                  f"[{', '.join(d.rule for d in outcome.applied)}]; "
                  f"corrected ordering written to {output}")
            result = lint_system(
                system, outcome.ordering, select=select, ignore=ignore
            )
        else:
            print("nothing to fix")

    renderers = {
        "text": lambda r: render_text(r, verbose=args.verbose),
        "json": render_json,
        "sarif": render_sarif,
    }
    print(renderers[args.format](result), end="")
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    return 1 if result.has_at_least(threshold) else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    watch = default_watch(system)
    if args.batch is not None:
        return _simulate_batch_cli(system, ordering, watch, args)
    result = simulate(system, ordering, iterations=args.iterations)
    measured = result.measured_cycle_time(watch)
    print(f"iterations:   {result.iterations[watch]} (watched: {watch})")
    print(f"measured cycle time: {measured}")
    predicted = analyze_system(system, ordering).cycle_time
    print(f"predicted cycle time: {predicted}")
    stalled = sorted(
        result.stall_cycles.items(), key=lambda item: -item[1]
    )[:5]
    print("top stalls: " + ", ".join(f"{p}={c}" for p, c in stalled if c))
    return 0


def _simulate_batch_cli(system, ordering, watch: str, args) -> int:
    """``ermes simulate --batch N``: lane 0 is the declared system, lanes
    1..N-1 sweep uniformly scaled-down process latencies (a what-if over
    faster implementations), all advanced in one lock-step run and
    cross-checked against the scalar engine."""
    from repro.errors import ValidationError
    from repro.sim import BatchLane, Simulator, simulate_batch

    n_lanes = args.batch
    if n_lanes < 1:
        raise ValidationError("--batch needs at least one lane")
    base = system.process_latencies()
    lanes = [BatchLane()]
    for k in range(1, n_lanes):
        scale_num = n_lanes - k
        lanes.append(
            BatchLane(
                process_latencies={
                    name: max(0, latency * scale_num // n_lanes)
                    for name, latency in base.items()
                }
            )
        )
    results = simulate_batch(
        system, lanes, ordering, iterations=args.iterations, watch=watch
    )
    print(f"batch: {len(lanes)} lanes, watched: {watch}")
    for k, result in enumerate(results):
        label = "declared" if k == 0 else f"latencies x{n_lanes - k}/{n_lanes}"
        print(
            f"  lane {k:>2} ({label}): iterations "
            f"{result.iterations[watch]}, measured cycle time "
            f"{result.measured_cycle_time(watch)}"
        )
    check = Simulator(system, ordering).run(
        iterations=args.iterations, watch=watch
    )
    if results[0] != check:
        print("cross-check: FAILED (batch lane 0 != scalar engine)")
        return 2
    print("cross-check: lane 0 bit-identical to the scalar engine")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        MemorySink,
        event_to_dict,
        render_chrome_trace,
        to_vcd,
    )
    from repro.sim import Simulator
    from repro.sim.trace import format_trace

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    sink = MemorySink()
    simulator = Simulator(system, ordering, sinks=[sink])
    result = simulator.run(iterations=args.iterations)
    events = sink.events()

    if args.format == "perfetto":
        text = render_chrome_trace(events, system, name=system.name) + "\n"
        hint = "open it at https://ui.perfetto.dev"
    elif args.format == "vcd":
        text = to_vcd(events, system, name=system.name)
        hint = "open it in GTKWave or any VCD viewer"
    elif args.format == "jsonl":
        text = "".join(
            json.dumps(event_to_dict(e), separators=(",", ":")) + "\n"
            for e in events
        )
        hint = "one JSON object per line (schema: docs/OBSERVABILITY.md)"
    else:
        text = format_trace(events, limit=args.limit)
        hint = ""

    if args.output:
        _write_text(text, args.output, "trace")
        total_stalls = sum(result.stall_cycles.values())
        print(f"{len(events)} events ({total_stalls} stall cycles) "
              f"written to {args.output}")
        if hint:
            print(hint)
    else:
        print(text, end="")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from repro.cache import CacheStats, memos
    from repro.dse import (
        Explorer,
        SystemConfiguration,
        convergence_rows,
        format_convergence,
    )
    from repro.hls import ImplementationLibrary, synthesize_pareto_set
    from repro.lint import preflight
    from repro.obs import collect, format_metrics
    from repro.obs.metrics import timed
    from repro.perf import PerformanceEngine
    from repro.sim import simulate

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    perf_engine = PerformanceEngine()
    memo_start = {
        name: replace(cache.stats) for name, cache in memos().items()
    }

    with collect() as registry:
        with timed("profile.preflight"):
            preflight(system, ordering)
        with timed("profile.order"):
            optimized = channel_ordering(system, initial_ordering=ordering)
        with timed("profile.analyze"):
            performance = analyze_system(
                system, optimized, perf_engine=perf_engine
            )

        # A synthetic-but-deterministic Pareto library (the pre-characterized
        # HLS input of Fig. 5) lets `ermes profile` exercise the full DSE
        # loop on any plain design JSON.
        library = ImplementationLibrary(
            synthesize_pareto_set(
                p.name,
                base_latency=max(p.latency, 1),
                base_area=3.0 * max(p.latency, 1),
                seed=args.seed,
                max_points=args.max_points,
            )
            for p in system.workers()
        )
        config = SystemConfiguration.initial(
            system, library, ordering=optimized, pick="smallest"
        )
        initial_ct = analyze_system(
            system,
            optimized,
            process_latencies=config.process_latencies(),
            perf_engine=perf_engine,
        ).cycle_time
        target = args.target if args.target else 0.75 * float(initial_ct)

        with timed("profile.dse"):
            result = Explorer(
                target_cycle_time=target,
                max_iterations=args.max_iterations,
                perf_engine=perf_engine,
            ).run(config)

        if not args.no_simulate:
            with timed("profile.simulate"):
                simulate(system, optimized, iterations=args.iterations)

    # The process-wide memos, counted over this run only.
    registry.merge_cache_stats({
        name: {
            key: getattr(cache.stats, key)
            - getattr(memo_start.get(name, CacheStats()), key)
            for key in ("hits", "misses", "evictions")
        }
        for name, cache in memos().items()
    })

    final = result.final_record
    if args.json:
        payload = {
            "system": system.name,
            "cycle_time": float(performance.cycle_time),
            "target_cycle_time": float(target),
            "achieved_cycle_time": float(final.cycle_time),
            "area": final.area,
            "feasible": final.meets_target,
            "iterations": convergence_rows(result.history),
            "metrics": registry.snapshot(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"system:   {system.name}  "
          f"({len(system.workers())} processes, "
          f"{len(system.channels)} channels)")
    print(f"analyzed cycle time: {performance.cycle_time}")
    print(f"DSE target {float(target):.1f}: achieved "
          f"{float(final.cycle_time):.1f}, area {final.area:.1f}, "
          f"{'feasible' if final.meets_target else 'infeasible'}")
    print()
    print("convergence (one row per DSE iteration):")
    print(format_convergence(result.history))
    print(format_metrics(registry), end="")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    import json

    from repro.core import system_to_dict
    from repro.workloads import FAMILIES, generate

    if args.list_families:
        print(f"{'family':<16} {'default size':>12}  size meaning")
        for spec in FAMILIES.values():
            print(f"{spec.family:<16} {spec.default_size:>12}  {spec.size_help}")
        return 0
    if args.family is None:
        print("error: a family name is required (or use --list)",
              file=sys.stderr)
        return 2
    workload = generate(args.family, seed=args.seed, size=args.size)
    text = json.dumps(system_to_dict(workload.system), indent=2,
                      sort_keys=True) + "\n"
    if args.output:
        _write_text(text, args.output, "system")
        system = workload.system
        families = ", ".join(
            f.name for f in system.declared_families) or "(none)"
        print(f"{workload.name}: {len(system.process_names)} processes, "
              f"{len(system.channel_names)} channels, "
              f"declared families: {families}")
        print(f"written to {args.output}")
        print(f"  {workload.description}")
    else:
        print(text, end="")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    system = motivating_example()
    print(f"motivating example: {len(system.workers())} processes, "
          f"{len(system.channels)} channels, "
          f"{system.order_space_size()} possible orderings")
    dead = motivating_deadlock_ordering(system)
    print("\nListing-1 order (P2 puts b,d,f; P6 gets g,d,e):")
    print("  " + " -> ".join(deadlock_cycle(system, dead) or ()) + "  [DEADLOCK]")
    sub = motivating_suboptimal_ordering(system)
    perf = analyze_system(system, sub)
    print(f"\nhand-fixed order (P2 puts f,b,d; P6 gets e,g,d): "
          f"cycle time {perf.cycle_time}, throughput {float(perf.throughput)}")
    ordering = channel_ordering(system, initial_ordering=sub)
    perf2 = analyze_system(system, ordering)
    print(f"Algorithm 1 order (P2 puts {list(ordering.puts_of('P2'))}; "
          f"P6 gets {list(ordering.gets_of('P6'))}): cycle time "
          f"{perf2.cycle_time} "
          f"({1 - float(perf2.cycle_time)/float(perf.cycle_time):.0%} better)")
    return 0


def _cmd_mpeg2(args: argparse.Namespace) -> int:
    from repro.dse import SystemConfiguration, explore, iteration_table, summarize
    from repro.mpeg2 import (
        build_mpeg2_library,
        build_mpeg2_system,
        channel_latencies,
        m1_selection,
        m2_selection,
    )

    system = build_mpeg2_system()
    library = build_mpeg2_library()

    if args.experiment == "table1":
        latencies = channel_latencies()
        print(f"Processes          {len(system.workers())}")
        print(f"Channels           "
              f"{len(system.channels) - len(system.sources()) - len(system.sinks())}")
        print(f"Pareto points      {library.total_points()}")
        print(f"Image size         352x240")
        print(f"Channel latencies  {min(latencies.values())}..{max(latencies.values())} cycles")
        return 0

    if args.experiment == "m1":
        from repro.perf import PerformanceEngine

        perf_engine = PerformanceEngine()
        config = SystemConfiguration(
            system, library, m1_selection(library), declaration_ordering(system)
        )
        latencies = config.process_latencies()
        before = analyze_system(system, config.ordering,
                                process_latencies=latencies,
                                perf_engine=perf_engine)
        ordering = channel_ordering(
            system.with_process_latencies(latencies),
            initial_ordering=config.ordering,
        )
        after = analyze_system(system, ordering, process_latencies=latencies,
                               perf_engine=perf_engine)
        gain = 1 - float(after.cycle_time) / float(before.cycle_time)
        print(f"M1 cycle time: {float(before.cycle_time)/1000:.0f} KCycles, "
              f"area {config.total_area()/1e6:.3f} mm2")
        print(f"after ERMES reordering: {float(after.cycle_time)/1000:.0f} KCycles "
              f"({gain:.1%} improvement, no area change)")
        if args.cache_stats:
            print("\nanalysis cache:")
            print(perf_engine.format_stats())
        return 0

    target = 2_000_000 if args.experiment == "fig6-left" else 4_000_000
    config = SystemConfiguration(
        system, library, m2_selection(library), declaration_ordering(system)
    )
    result = explore(config, target_cycle_time=target)
    print(iteration_table(result, cycle_time_unit=1000, area_unit=1e6))
    print(summarize(result))
    if args.cache_stats and result.cache_stats:
        print("\nanalysis cache:")
        for name, stats in result.cache_stats.items():
            print(f"{name:>10}: hits={stats['hits']} misses={stats['misses']} "
                  f"evictions={stats['evictions']} "
                  f"hit_rate={stats['hit_rate']:.1%}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import design_report

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    text = design_report(
        system,
        ordering,
        include_sensitivity=not args.no_sensitivity,
        include_stalls=not args.no_stalls,
    )
    if args.output:
        _write_text(text, args.output, "report")
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import format_registry

    print(format_registry(), end="")
    print("\nrun them all with:  pytest benchmarks/ --benchmark-only -s")
    return 0


def _cmd_bottlenecks(args: argparse.Namespace) -> int:
    from repro.model import format_sensitivity, sensitivity_report

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    report = sensitivity_report(system, ordering)
    print(format_sensitivity(report, limit=args.top))
    hot = report.bottlenecks()
    if hot:
        best = hot[0]
        print(f"speeding up {best.process!r} helps most "
              f"(up to -{best.potential} cycles)")
    else:
        print("no single process limits the cycle time "
              "(communication-bound)")
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.sizing import minimize_buffers

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    result = minimize_buffers(
        system,
        target_cycle_time=args.target,
        ordering=ordering,
        max_capacity=args.max_capacity,
    )
    status = "feasible" if result.feasible else "INFEASIBLE (floor reached)"
    print(f"target {args.target}: {status}, achieved cycle time "
          f"{result.cycle_time}, total slots {result.total_slots}")
    for name in sorted(result.capacities):
        print(f"  {name}: capacity {result.capacities[name]}")
    return 0 if result.feasible else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.core import system_to_dot
    from repro.model import build_tmg
    from repro.tmg import analyze, tmg_to_dot

    system = load_system(args.system)
    ordering = _load_ordering_arg(system, args.ordering)
    if args.tmg:
        model = build_tmg(system, ordering)
        highlight_t: tuple[str, ...] = ()
        highlight_p: tuple[str, ...] = ()
        if args.critical:
            report = analyze(model.graph)
            highlight_t = report.critical_cycle
            highlight_p = report.critical_places
        dot = tmg_to_dot(model.tmg, highlight_transitions=highlight_t,
                         highlight_places=highlight_p)
    else:
        highlight_channels: tuple[str, ...] = ()
        highlight_processes: tuple[str, ...] = ()
        if args.critical:
            performance = analyze_system(system, ordering)
            highlight_channels = performance.critical_channels
            highlight_processes = performance.critical_processes
        dot = system_to_dot(system, ordering=ordering,
                            highlight_channels=highlight_channels,
                            highlight_processes=highlight_processes)
    if args.output:
        _write_text(dot, args.output, "dot")
        print(f"written to {args.output}")
    else:
        print(dot, end="")
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    perf_engine = None
    if args.cache_stats:
        from repro.perf import PerformanceEngine

        perf_engine = PerformanceEngine()
    header = (f"{'processes':>10} {'channels':>10} {'order (s)':>10} "
              f"{'analyze (s)':>12}")
    if perf_engine is not None:
        header += f" {'cached (s)':>12}"
    print(header)
    for size in sizes:
        system = synthetic_soc(size, seed=args.seed)
        start = time.perf_counter()
        ordering = channel_ordering(system)
        t_order = time.perf_counter() - start
        start = time.perf_counter()
        analyze_system(system, ordering, perf_engine=perf_engine)
        t_analyze = time.perf_counter() - start
        row = (f"{len(system.workers()):>10} {len(system.channels):>10} "
               f"{t_order:>10.3f} {t_analyze:>12.3f}")
        if perf_engine is not None:
            start = time.perf_counter()
            analyze_system(system, ordering, perf_engine=perf_engine)
            row += f" {time.perf_counter() - start:>12.3f}"
        print(row)
    if perf_engine is not None:
        print("\nanalysis cache:")
        print(perf_engine.format_stats())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ermes",
        description="ERMES reproduction: performance analysis, channel "
        "ordering, and design-space exploration for communication-centric "
        "SoCs (DAC 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze",
        help="cycle time, critical cycle, and static dataflow analysis "
             "(occupancy bounds, token invariants, deadlock-freedom "
             "certificate)",
    )
    p.add_argument("system", help="system JSON file")
    p.add_argument("--ordering", help="ordering JSON file")
    p.add_argument("--symmetry", action="store_true",
                   help="include the orbit report of the lowered program "
                        "(replicated families + canonical hash)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="json emits the performance summary plus the full "
                        "static-analysis document (bounds, invariants, "
                        "certificate)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "ir",
        help="show the lowered core IR of a (system, ordering) pair "
             "(the compiled program sim/TMG/verify share; "
             "docs/ARCHITECTURE.md)",
    )
    p.add_argument("system", help="system JSON file")
    p.add_argument("--ordering", help="ordering JSON file")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("-o", "--output", help="write the dump to this file")
    p.set_defaults(func=_cmd_ir)

    p = sub.add_parser("order", help="run Algorithm 1 channel ordering")
    p.add_argument("system")
    p.add_argument("--ordering", help="initial ordering JSON file")
    p.add_argument("-o", "--output", help="write the ordering to this file")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("check", help="deadlock check")
    p.add_argument("system")
    p.add_argument("--ordering")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "verify",
        help="exhaustive deadlock verification (explicit-state model "
             "checking with partial-order reduction; see "
             "docs/VERIFICATION.md)",
    )
    p.add_argument("system")
    p.add_argument("--ordering", help="ordering JSON file to verify")
    p.add_argument("--budget-states", type=int,
                   default=1_000_000, dest="budget_states",
                   help="max states to explore before the verdict becomes "
                        "INCONCLUSIVE (exit code 3, never a silent pass)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   dest="budget_seconds",
                   help="wall-clock cap with the same contract")
    p.add_argument("--trace", action="store_true",
                   help="print the full witness schedule, one step per line")
    p.add_argument("--sym", action="store_true",
                   help="canonicalize states to orbit representatives "
                        "(symmetry reduction; same verdict, but under POR "
                        "it saves no states on the measured designs)")
    p.add_argument("--no-por", action="store_true", dest="no_por",
                   help="disable the stubborn-set reduction (explore the "
                        "full interleaving)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "lint",
        help="static design analysis (rule catalog: docs/LINT_RULES.md)",
    )
    p.add_argument("system")
    p.add_argument("--ordering", help="ordering JSON file to lint")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="output format (sarif follows SARIF 2.1.0)")
    p.add_argument("--select",
                   help="comma-separated rule codes or prefixes to run "
                        "(e.g. ERM2,ERM301)")
    p.add_argument("--ignore",
                   help="comma-separated rule codes or prefixes to skip")
    p.add_argument("--fail-on", dest="fail_on", default="error",
                   choices=["error", "warning"],
                   help="lowest severity that makes the exit code 1")
    p.add_argument("--fix", action="store_true",
                   help="apply machine-applicable fix-its and write the "
                        "corrected ordering JSON")
    p.add_argument("-o", "--output",
                   help="where --fix writes the corrected ordering "
                        "(default: the --ordering file)")
    p.add_argument("--verbose", action="store_true",
                   help="also print each fix-it's description")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("simulate", help="discrete-event simulation")
    p.add_argument("system")
    p.add_argument("--ordering")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--batch", type=int, nargs="?", const=8, default=None,
                   metavar="N",
                   help="vectorized batch run: N lanes (default 8) over one "
                        "compiled structure — lane 0 is the declared system, "
                        "the rest sweep scaled-down process latencies; lane 0 "
                        "is cross-checked against the scalar engine")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="simulate and export an execution trace "
             "(Perfetto / VCD / JSONL; see docs/OBSERVABILITY.md)",
    )
    p.add_argument("system")
    p.add_argument("--ordering")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--format", default="perfetto",
                   choices=["perfetto", "vcd", "jsonl", "text"],
                   help="perfetto = Chrome trace-event JSON for "
                        "ui.perfetto.dev; vcd = waveform for GTKWave; "
                        "jsonl = one event per line; text = human-readable")
    p.add_argument("--limit", type=int, default=100,
                   help="max events shown by --format text")
    p.add_argument("-o", "--output", help="write the trace to this file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run the instrumented flow (ordering, analysis, DSE, "
             "simulation) and print a profile",
    )
    p.add_argument("system")
    p.add_argument("--ordering")
    p.add_argument("--target", type=float, default=None,
                   help="DSE target cycle time (default: 75%% of the "
                        "initial configuration's cycle time)")
    p.add_argument("--max-iterations", type=int, default=16,
                   help="DSE iteration cap")
    p.add_argument("--iterations", type=int, default=100,
                   help="simulation length for the profile.simulate phase")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the synthetic Pareto library")
    p.add_argument("--max-points", type=int, default=5,
                   help="Pareto points per process in the synthetic library")
    p.add_argument("--no-simulate", action="store_true",
                   help="skip the simulation phase")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output: metrics snapshot plus "
                        "one record per DSE iteration")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "gen",
        help="generate a seeded workload design as system JSON "
             "(families: ofdm-rx, rate-converter, noc-torus, butterfly, "
             "bursty-soc; see docs/DSL.md)",
    )
    p.add_argument("family", nargs="?",
                   help="workload family name (see --list)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed; (family, seed, size) regenerates "
                        "the same design bit-for-bit")
    p.add_argument("--size", type=int, default=None,
                   help="family-specific scale knob (default per family; "
                        "see --list)")
    p.add_argument("--list", action="store_true", dest="list_families",
                   help="list the registered families and their size "
                        "semantics")
    p.add_argument("-o", "--output",
                   help="write the system JSON here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("demo", help="the paper's motivating example")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("mpeg2", help="MPEG-2 case-study experiments")
    p.add_argument(
        "--experiment",
        default="m1",
        choices=["table1", "m1", "fig6-left", "fig6-right"],
    )
    p.add_argument("--cache-stats", action="store_true",
                   help="print analysis-cache hit/miss counters")
    p.set_defaults(func=_cmd_mpeg2)

    p = sub.add_parser("report", help="full markdown design report")
    p.add_argument("system")
    p.add_argument("--ordering")
    p.add_argument("--no-sensitivity", action="store_true",
                   help="skip the bottleneck table (faster on huge systems)")
    p.add_argument("--no-stalls", action="store_true",
                   help="skip the simulated stall-attribution table")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("experiments",
                       help="list the paper artifacts this repo regenerates")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("bottlenecks",
                       help="per-process slack and speed-up potential")
    p.add_argument("system")
    p.add_argument("--ordering")
    p.add_argument("--top", type=int, default=0,
                   help="show only the N most impactful processes")
    p.set_defaults(func=_cmd_bottlenecks)

    p = sub.add_parser("size", help="size FIFO capacities for a target")
    p.add_argument("system")
    p.add_argument("--target", type=int, required=True,
                   help="target cycle time")
    p.add_argument("--ordering")
    p.add_argument("--max-capacity", type=int, default=64)
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser("dot", help="export Graphviz DOT")
    p.add_argument("system")
    p.add_argument("--ordering")
    p.add_argument("--tmg", action="store_true",
                   help="export the TMG instead of the system graph")
    p.add_argument("--critical", action="store_true",
                   help="highlight the critical cycle")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("scalability", help="synthetic SoC scalability sweep")
    p.add_argument("--sizes", default="100,1000,10000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-stats", action="store_true",
                   help="serve analyses through the cache, time a repeat, "
                        "and print hit/miss counters")
    p.set_defaults(func=_cmd_scalability)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DeadlockError as error:
        print(f"deadlock: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
