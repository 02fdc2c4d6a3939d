"""The four ledger workloads: inputs, measured operations and oracles.

A workload is three functions.  ``build(seed, smoke)`` makes the inputs
(set-up, timed as ``setup.inputs``); ``run(inputs, rep)`` performs the
measured operations through :meth:`Rep.call`, which times each one into
its phase (``dse_s``, ``analyze_s``, ...); ``oracle(inputs, results)``
checks the outputs against references that do not come from the code
path under test and returns the failures.

The designs form a fixed corpus: the generated families are drawn at
``CORPUS_SEED``.  ``--seed`` relabels that corpus (:func:`relabel`)
rather than drawing new designs, because the cost of one generated
design swings by 2-12x between generator seeds, which no bound on a
median could absorb.  ``README.md`` records why each workload exists and
which layers it stresses.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from repro.core import (
    load_system,
    motivating_deadlock_ordering,
    motivating_example,
    synthetic_soc,
    system_from_dict,
    system_to_dict,
)
from repro.dse import Explorer, SystemConfiguration
from repro.dse.sweep import sweep_targets
from repro.hls import ImplementationLibrary, ParetoSet, synthesize_pareto_set
from repro.model import analyze_system
from repro.model.build import build_tmg
from repro.mpeg2 import build_mpeg2_library, build_mpeg2_system, m2_selection
from repro.ordering import channel_ordering, declaration_ordering
from repro.perf import PerformanceEngine
from repro.sim import BatchLane, BatchSimulator, Simulator, simulate
from repro.verify import Verdict, check_deadlock, replay_witness
from repro.workloads import generate

DESIGNS = Path(__file__).resolve().parents[2] / "examples" / "designs"
CORPUS_SEED = 0

#: Fig. 6 endpoints from EXPERIMENTS.md: (target, final CT, final area).
FIG6 = (
    (2_000_000, Fraction(3990855, 2), 1646384.3),
    (4_000_000, Fraction(3476703), 1031000.0),
)

#: Exact cycle time of ``synthetic_soc(10_000, CORPUS_SEED)`` under
#: Algorithm 1, from plain exact Howard (the command is in README.md).
SCAL_PIN = Fraction(31551)

SWEEP_FACTORS = (Fraction(9, 10), Fraction(3, 4), Fraction(3, 5), Fraction(1, 2))

VERIFY_BUDGET_STATES = 10_000
SIM_ITERATIONS = 256
BATCH_LANES = 64
BATCH_ITERATIONS = 64


class Rep:
    """One repetition's timed operations, outputs, counters and failures.

    ``mark`` positions each operation in the speed probe's sample stream,
    so the worker can rescale every operation by the machine speed
    measured while it ran.
    """

    def __init__(self, span: Callable[[str], Any], mark: Callable[[], int]):
        self.span = span
        self.mark = mark
        #: ``(phase, first sample, end sample, wall seconds)`` per operation.
        self.ops: list[tuple[str, int, int, float]] = []
        self.outputs: list[Any] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}
        self.final_area = 0.0
        self.targets_met = [0, 0]
        self.verify_decided = [0, 0]

    def call(
        self, phase: str, span_name: str | None, function: Callable[..., Any],
        *args: Any, **kwargs: Any,
    ) -> Any:
        """One measured operation; ``None`` when it raised (a failed op)."""
        self.attempted += 1
        first = self.mark()
        start = time.perf_counter()
        try:
            if span_name is None:
                return function(*args, **kwargs)
            with self.span(span_name):
                return function(*args, **kwargs)
        except Exception as error:  # a raising operation is a failed one
            traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{phase}: {type(error).__name__}: {error}")
            return None
        finally:
            wall = time.perf_counter() - start
            self.ops.append((phase, first, self.mark(), wall))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def cache_stats(self, stats: dict[str, dict[str, Any]] | None) -> None:
        for cache, row in (stats or {}).items():
            self.count(f"perf.{cache}.hits", int(row["hits"]))
            self.count(f"perf.{cache}.misses", int(row["misses"]))

    def explored(self, target: Any, cycle_time: Any, area: float) -> None:
        self.final_area += area
        self.targets_met[0] += cycle_time <= target
        self.targets_met[1] += 1

    def verdict(self, result: Any) -> None:
        self.verify_decided[0] += result.conclusive
        self.verify_decided[1] += 1
        self.count("verify.states", result.states_explored)
        self.count("verify.inconclusive", not result.conclusive)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], Any]
    run: Callable[[Any, Rep], Any]
    oracle: Callable[[Any, Any], list[str]]
    #: Spans a traced repetition must contain (the trace self-check).
    expected_spans: tuple[str, ...]


def relabel(system: Any, seed: int) -> tuple[Any, dict[str, str]]:
    """``system`` with process and channel names drawn from ``seed``.

    Topology, latencies, declaration order and the sorted order of the
    names are unchanged, so results and work are too (the verifier's
    stubborn sets, for one, break ties by channel name); what changes per
    seed is every name the program sees, its hash, and so the layout of
    every name-keyed table.  Returns the renamed system and the
    process-name map.
    """
    rng = random.Random(seed)
    document = system_to_dict(system)
    names = {}
    for key, prefix in (("processes", "p"), ("channels", "c")):
        entries = document[key]
        fresh = sorted(rng.sample(range(10 ** 7), len(entries)))
        names[key] = {
            old: f"{prefix}{number:07d}"
            for old, number in zip(sorted(e["name"] for e in entries), fresh)
        }
        for entry in entries:
            entry["name"] = names[key][entry["name"]]
    processes, channels = names["processes"], names["channels"]
    for channel in document["channels"]:
        channel["producer"] = processes[channel["producer"]]
        channel["consumer"] = processes[channel["consumer"]]
    for family in document.get("families", ()):
        family["process_blocks"] = [
            [processes[n] for n in block] for block in family["process_blocks"]
        ]
        family["channel_blocks"] = [
            [channels[n] for n in block] for block in family["channel_blocks"]
        ]
    document["name"] = f"{document['name']}-r{seed}"
    return system_from_dict(document), processes


def _ordering_key(ordering: Any) -> list[Any]:
    return [sorted(ordering.gets.items()), sorted(ordering.puts.items())]


def _config_key(config: Any) -> list[Any]:
    return [sorted(config.selection.items()), _ordering_key(config.ordering)]


# --------------------------------------------------------------- mpeg2-dse


def _mpeg2_build(seed: int, smoke: bool) -> Any:
    system = build_mpeg2_system()
    library = build_mpeg2_library()
    config = SystemConfiguration(
        system, library, m2_selection(library), declaration_ordering(system)
    )
    return config, FIG6[1:] if smoke else FIG6


def _mpeg2_run(inputs: Any, rep: Rep) -> Any:
    config, targets = inputs
    results = []
    for target, _, _ in targets:
        result = rep.call("dse_s", None, Explorer(target).run, config)
        results.append(result)
        if result is None:
            continue
        record = result.final_record
        rep.explored(target, record.cycle_time, record.area)
        rep.cache_stats(result.cache_stats)
        rep.outputs.append([
            target, str(record.cycle_time), record.area, len(result.history),
            result.stop_reason, _config_key(result.final),
        ])
    return results


def _mpeg2_oracle(inputs: Any, results: Any) -> list[str]:
    failures = []
    for (target, cycle_time, area), result in zip(inputs[1], results):
        if result is None:
            continue
        record = result.final_record
        if (record.cycle_time, record.area) != (cycle_time, area):
            failures.append(
                f"TCT {target}: final CT {record.cycle_time} area "
                f"{record.area}, EXPERIMENTS.md pins {cycle_time} / {area}"
            )
    return failures


# --------------------------------------------------------------- soc-sweep

SWEEP_FAMILIES = (
    ("ofdm-rx", 4), ("noc-torus", 3), ("butterfly", 2),
    ("rate-converter", 3), ("bursty-soc", 24),
)


def _library(design: Any, names: dict[str, str]) -> ImplementationLibrary:
    """The design's synthesized Pareto library, keyed by its new names."""
    return ImplementationLibrary(
        ParetoSet.from_points(
            names[p.name],
            synthesize_pareto_set(
                p.name,
                base_latency=max(p.latency, 1),
                base_area=3.0 * max(p.latency, 1),
                seed=CORPUS_SEED,
                max_points=8,
            ).points,
            filter_dominated=False,
        )
        for p in design.workers()
    )


def _sweep_build(seed: int, smoke: bool) -> Any:
    families = SWEEP_FAMILIES[:2] if smoke else SWEEP_FAMILIES
    factors = SWEEP_FACTORS[::2] if smoke else SWEEP_FACTORS
    designs = [load_system(DESIGNS / "soc24.json")] + [
        generate(family, seed=CORPUS_SEED, size=size).system
        for family, size in families
    ]
    sweeps = []
    for design in designs:
        system, names = relabel(design, seed)
        config = SystemConfiguration.initial(
            system, _library(design, names), ordering=channel_ordering(system),
            pick="smallest",
        )
        initial = analyze_system(
            system, config.ordering, process_latencies=config.process_latencies()
        ).cycle_time
        sweeps.append((config, [initial * f for f in factors]))
    return sweeps


def _sweep_run(inputs: Any, rep: Rep) -> Any:
    results = []
    for config, targets in inputs:
        points = rep.call(
            "dse_s", "dse.sweep", sweep_targets, config, targets, batch=False
        )
        results.append(points)
        if points is None:
            continue
        rep.cache_stats(points[-1].result.cache_stats)  # one engine per sweep
        for point in points:
            rep.explored(point.target_cycle_time, point.cycle_time, point.area)
            rep.outputs.append([
                str(point.target_cycle_time), str(point.cycle_time), point.area,
                point.feasible, point.iterations, _config_key(point.result.final),
            ])
    return results


def _sweep_oracle(inputs: Any, results: Any) -> list[str]:
    failures = []
    for (config, _), points in zip(inputs, results):
        for point in points or ():
            final = point.result.final
            reference = analyze_system(
                final.system, final.ordering,
                process_latencies=final.process_latencies(),
            ).cycle_time
            if point.cycle_time != reference:
                failures.append(
                    f"{config.system.name} @ {point.target_cycle_time}: CT "
                    f"{point.cycle_time} != uncached analysis {reference}"
                )
            if point.feasible != (point.cycle_time <= point.target_cycle_time):
                failures.append(
                    f"{config.system.name} @ {point.target_cycle_time}: "
                    f"feasible={point.feasible} but CT {point.cycle_time}"
                )
    return failures


# ------------------------------------------------------------ scal-analyze


def _scal_build(seed: int, smoke: bool) -> Any:
    big, _ = relabel(synthetic_soc(1_000 if smoke else 10_000, seed=CORPUS_SEED), seed)
    small, _ = relabel(synthetic_soc(200 if smoke else 500, seed=CORPUS_SEED), seed)
    return smoke, big, small, channel_ordering(small)


def _scal_run(inputs: Any, rep: Rep) -> Any:
    _, big, small, small_ordering = inputs
    ordering = rep.call(
        "analyze_s", "ordering.channel_ordering", channel_ordering, big
    )
    big_result = None
    if ordering is not None:
        big_result = rep.call(
            "analyze_s", "model.analyze_system", analyze_system, big, ordering,
            exact=False,
        )
    engine = PerformanceEngine()
    small_result = rep.call(
        "analyze_exact_s", "perf.analyze", engine.analyze, small, small_ordering
    )
    rep.cache_stats(engine.stats_dict())
    rep.outputs.append([
        big_result and repr(big_result.cycle_time),
        small_result and str(small_result.cycle_time),
    ])
    return ordering, big_result, small_result


def _scal_oracle(inputs: Any, results: Any) -> list[str]:
    smoke, big, small, small_ordering = inputs
    ordering, big_result, small_result = results
    failures = []
    if big_result is not None:
        # The float CT must be the exact ratio of the critical cycle it
        # reports (delays over tokens, recomputed on a fresh TMG) ...
        tmg = build_tmg(big, ordering).tmg
        report = big_result.report
        ratio = Fraction(
            sum(tmg.delay(t) for t in report.critical_cycle),
            sum(tmg.tokens(p) for p in report.critical_places),
        )
        if float(ratio) != big_result.cycle_time:
            failures.append(
                f"10k float CT {big_result.cycle_time} != its critical "
                f"cycle's exact ratio {ratio}"
            )
        # ... and the maximum ratio that exact Howard found offline.
        if not smoke and big_result.cycle_time != float(SCAL_PIN):
            failures.append(
                f"10k float CT {big_result.cycle_time} != pin {SCAL_PIN}"
            )
    if small_result is not None:
        reference = analyze_system(small, small_ordering, exact=True).cycle_time
        if small_result.cycle_time != reference:
            failures.append(
                f"default-engine CT {small_result.cycle_time} != plain exact "
                f"Howard {reference}"
            )
    return failures


# ----------------------------------------------------------------- signoff

SIGNOFF_FAMILIES = (
    ("ofdm-rx", 8), ("noc-torus", 4), ("butterfly", 3),
    ("rate-converter", 3), ("bursty-soc", 16), ("bursty-soc", 24),
)


def _scaled_lanes(system: Any) -> list[BatchLane]:
    """Lane 0 is the declared system; lanes k scale every latency by
    ``(N - k) / N``, as ``ermes simulate --batch N`` does."""
    base = system.process_latencies()
    return [BatchLane()] + [
        BatchLane(process_latencies={
            name: latency * (BATCH_LANES - k) // BATCH_LANES
            for name, latency in base.items()
        })
        for k in range(1, BATCH_LANES)
    ]


def _watch(system: Any) -> str:
    sinks = system.sinks()
    return sinks[0].name if sinks else system.process_names[0]


def _signoff_build(seed: int, smoke: bool) -> Any:
    families = (("noc-torus", 3), ("bursty-soc", 16)) if smoke else (
        SIGNOFF_FAMILIES
    )
    designs = [
        load_system(path) for path in sorted(DESIGNS.glob("*.json"))
        if not path.name.endswith(".ordering.json")
    ] + [
        generate(family, seed=CORPUS_SEED, size=size).system
        for family, size in families
    ]
    inputs = []
    for design in designs:
        system, _ = relabel(design, seed)
        orderings = [("algorithm1", channel_ordering(system))]
        if system.declared_families:
            # Algorithm 1's statement orders tell replicated lanes apart,
            # which leaves the quotient search no symmetry to use; the
            # declared order keeps the families' automorphisms.
            orderings.append(("declared", declaration_ordering(system)))
        inputs.append((system, orderings, _scaled_lanes(system)))
    motivating = motivating_example()
    return inputs, motivating, motivating_deadlock_ordering(motivating)


def _verify(rep: Rep, system: Any, ordering: Any, sym: bool) -> Any:
    result = rep.call(
        "verify_s", "verify.check_deadlock", check_deadlock, system, ordering,
        por=True, sym=sym, budget_states=VERIFY_BUDGET_STATES,
    )
    if result is not None:
        rep.verdict(result)
        rep.outputs.append([
            system.name, sym, result.verdict.value, result.states_explored,
            result.sym,
        ])
    return result


def _signoff_run(inputs: Any, rep: Rep) -> Any:
    designs, motivating, listing1 = inputs
    results = []
    for system, orderings, lanes in designs:
        symmetric = (False, True) if system.declared_families else (False,)
        checks = {
            (label, sym): _verify(rep, system, ordering, sym)
            for label, ordering in orderings
            for sym in symmetric
        }
        ordering = orderings[0][1]
        watch = _watch(system)
        scalar = rep.call(
            "simulate_s", "sim.simulate", simulate, system, ordering,
            iterations=SIM_ITERATIONS,
        )
        batch = rep.call(
            "simulate_s", "sim.simulate",
            lambda: BatchSimulator(system, ordering, lanes=lanes).run(
                iterations=BATCH_ITERATIONS, watch=watch, on_deadlock="capture"
            ),
        )
        results.append((checks, batch))
        rep.outputs.append([
            _ordering_key(ordering),
            scalar and scalar.completion_times[watch],
            batch and [
                getattr(lane, "completion_times", {}).get(watch) for lane in batch
            ],
        ])
    return results, _verify(rep, motivating, listing1, False)


def _signoff_oracle(inputs: Any, results: Any) -> list[str]:
    designs, motivating, listing1 = inputs
    per_design, dead = results
    failures = []
    for (system, orderings, _), (checks, batch) in zip(designs, per_design):
        for (label, sym), check in checks.items():
            if check is None:
                continue
            if label == "algorithm1" and check.deadlocked:
                failures.append(f"{system.name}: Algorithm 1 ordering DEADLOCKED")
            plain = checks[label, False]
            if sym and plain is not None and check.conclusive and (
                plain.conclusive and check.verdict != plain.verdict
            ):
                failures.append(
                    f"{system.name} ({label} order): sym verdict "
                    f"{check.verdict.value} != plain {plain.verdict.value}"
                )
        if batch is not None:
            scalar = Simulator(system, orderings[0][1]).run(
                iterations=BATCH_ITERATIONS, watch=_watch(system)
            )
            if batch[0] != scalar:
                failures.append(f"{system.name}: batch lane 0 != scalar run")
    if dead is not None:
        if dead.verdict is not Verdict.DEADLOCKED:
            failures.append(f"Listing-1 ordering verdict {dead.verdict.value}")
        else:
            try:
                replay_witness(motivating, listing1, dead.witness)
            except Exception as error:  # a witness that fails to replay
                failures.append(f"Listing-1 witness does not replay: {error}")
    return failures


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "mpeg2-dse", _mpeg2_build, _mpeg2_run, _mpeg2_oracle,
            ("dse.explorer", "dse.problem", "ilp.solve", "perf.analyze",
             "perf.build_structure", "perf.instantiate",
             "tmg.analyze_event_graph", "ordering.channel_ordering",
             "lint.preflight", "ir.lower", "absint.analyze",
             "absint.check_certificate", "sym.analyze_symmetry"),
        ),
        Workload(
            "soc-sweep", _sweep_build, _sweep_run, _sweep_oracle,
            ("dse.sweep", "dse.explorer", "dse.problem", "ilp.solve",
             "perf.analyze", "perf.build_structure", "perf.instantiate",
             "tmg.analyze_event_graph", "ordering.channel_ordering",
             "lint.preflight", "ir.lower", "absint.analyze",
             "absint.check_certificate", "sym.analyze_symmetry",
             "verify.verify_ordering", "verify.successor"),
        ),
        Workload(
            "scal-analyze", _scal_build, _scal_run, _scal_oracle,
            ("ordering.channel_ordering", "model.analyze_system",
             "model.build_tmg", "tmg.analyze", "perf.analyze", "ir.lower",
             "perf.build_structure", "perf.instantiate",
             "tmg.analyze_event_graph"),
        ),
        Workload(
            "signoff", _signoff_build, _signoff_run, _signoff_oracle,
            ("verify.check_deadlock", "verify.stubborn_set",
             "verify.successor", "sym.canonicalize", "sim.simulate",
             "sim.simulator_run", "sim.batch_run", "lint.preflight"),
        ),
    )
}
