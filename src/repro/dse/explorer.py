"""The ERMES exploration loop (Fig. 5).

Each iteration:

1. **System-level performance analysis** — build the TMG of the current
   configuration and compute the cycle time and critical cycle (Howard).
2. **IP optimization** — compute the slack ``sp = TCT − CT``; run *area
   recovery* when the constraint is met (``sp > 0``) or *timing
   optimization* otherwise, as ILPs over the Pareto sets, excluding
   already-visited selections via no-good cuts.
3. **Channel reordering** — rerun Algorithm 1 under the new process
   latencies ("as it generates a new implementation, the algorithm for
   channel reordering optimizes the performance").

The loop stops when an iteration changes neither the selection nor the
ordering, when the ILP is infeasible, or at ``max_iterations``.  The full
trajectory is recorded so the Fig. 6 exploration plots can be regenerated.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Union

# The run looks these engines up through their package roots at call
# time (``from repro.lint import preflight`` in a method body); importing
# their modules here loads them with the explorer, not inside the first
# call.
import repro.absint.certificate  # noqa: F401
import repro.absint.engine  # noqa: F401
import repro.lint.engine  # noqa: F401
import repro.sym.canonical  # noqa: F401
import repro.sym.declared  # noqa: F401
from repro.core.system import ChannelOrdering
from repro.dse.config import SystemConfiguration
from repro.dse.problems import (
    area_recovery_problem,
    process_latency_caps,
    timing_optimization_problem,
)
from repro.errors import DeadlockError, InfeasibleError, NodeLimitError
from repro.ilp import branch_bound
from repro.model.performance import SystemPerformance, analyze_system
from repro.obs.metrics import active, count, observe, timed
from repro.ordering.algorithm import channel_ordering
from repro.perf.engine import PerformanceEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir import LoweredIR

Number = Union[Fraction, float]

_log = logging.getLogger(__name__)


def _node_limit_stop(error: NodeLimitError) -> str:
    """Stop reason for an ILP solve aborted by its node budget; the
    aborted search's nodes still count toward ``dse.ilp.nodes`` (and the
    run's last record)."""
    count("dse.ilp.nodes", error.nodes)
    return f"ILP node limit reached ({error.nodes} nodes)"


#: Hashable identity of a :class:`ChannelOrdering` (which carries plain,
#: unhashable dicts): per-process get and put sequences, sorted by name.
OrderingFingerprint = tuple[
    tuple[tuple[str, tuple[str, ...]], ...],
    tuple[tuple[str, tuple[str, ...]], ...],
]


def _ordering_fingerprint(ordering: ChannelOrdering) -> OrderingFingerprint:
    return (
        tuple(sorted((p, tuple(seq)) for p, seq in ordering.gets.items())),
        tuple(sorted((p, tuple(seq)) for p, seq in ordering.puts.items())),
    )


@dataclass(frozen=True)
class IterationRecord:
    """One row of an exploration trajectory (one Fig. 6 point).

    ``ilp_nodes`` counts the branch-and-bound nodes of the iteration's
    ILP solve(s); the last record also counts those of an iteration that
    ended the run without a record of its own, so the records sum to
    ``dse.ilp.nodes``.  The last three fields are what the iteration cost on
    this machine and cache, so they take no part in ``==``:
    ``wall_time_s`` is the wall-clock span since the previous record (the
    first one's since the run began), ``cache_hits``/``cache_misses`` the
    analysis results-cache lookups over that span.
    """

    iteration: int
    action: str  # "start" | "timing_optimization" | "area_recovery" | "none"
    cycle_time: Number
    area: float
    slack: Number
    meets_target: bool
    critical_processes: tuple[str, ...]
    selection_changes: tuple[tuple[str, str], ...]  # (process, new impl)
    reordered_processes: tuple[str, ...]
    ilp_nodes: int = 0
    wall_time_s: float = field(default=0.0, compare=False)
    cache_hits: int = field(default=0, compare=False)
    cache_misses: int = field(default=0, compare=False)


@dataclass
class ExplorationResult:
    """Outcome of one ERMES run.

    ``final`` is the configuration the tool returns: the best *feasible*
    one visited (meets the target cycle time, smallest area, then smallest
    CT), falling back to the last configuration when the target was never
    met.  ``history`` records the whole trajectory (the Fig. 6 series),
    including the iterations that overshoot or violate.
    """

    target_cycle_time: Number
    history: list[IterationRecord] = field(default_factory=list)
    final: SystemConfiguration | None = None
    final_index: int = -1
    stop_reason: str = ""
    cache_stats: dict[str, dict[str, int | float]] | None = None

    @property
    def initial_record(self) -> IterationRecord:
        return self.history[0]

    @property
    def final_record(self) -> IterationRecord:
        return self.history[self.final_index]

    @property
    def speedup(self) -> float:
        """Initial CT over final CT.

        Degenerate zero-latency systems can reach a cycle time of 0 (e.g.
        a zero-latency sink behind a buffered channel dominates every
        cycle); a zero *final* CT means the run is infinitely faster —
        unless the initial CT was already 0, in which case nothing changed.
        """
        initial = float(self.initial_record.cycle_time)
        final = float(self.final_record.cycle_time)
        if final == 0:
            return 1.0 if initial == 0 else float("inf")
        return initial / final

    @property
    def area_change(self) -> float:
        """Relative area change, final vs initial (positive = overhead)."""
        initial = self.initial_record.area
        if initial == 0:
            return 0.0
        return (self.final_record.area - initial) / initial


class Explorer:
    """ERMES: iterative co-optimization of IP selection and channel order.

    Every distinct ordering Algorithm 1 produces is machine-checked once
    per run and once per orbit (see :meth:`_verify_ordering`): when its
    lowered IR is isomorphic to one already checked (same
    orbit-canonical key, :mod:`repro.sym`), the check is skipped —
    deadlock freedom is invariant under IR automorphisms — and the skip
    is metered (``dse.sym.verify_deduped``) and logged, never silent.
    The exploration *trajectory* is untouched: analyses, ILP cuts and
    iteration decisions never consult the checks or the orbits.

    With a registry active (:func:`repro.obs.collect`), every run records
    its phases under the stable ``dse.*`` names (``docs/OBSERVABILITY.md``)
    and, when it ends, the engine's ``cache.results.*`` /
    ``cache.structures.*`` counters.

    Args:
        target_cycle_time: The designer's TCT constraint.
        max_iterations: Upper bound on optimization iterations.
        reorder: Rerun Algorithm 1 after each selection change (the paper's
            behaviour).  Disable to ablate the contribution of reordering.
        timing_area_budget: Optional area-increase cap per timing step
            (activates the dual formulation with area recovered from
            off-cycle processes).
        perf_engine: The :class:`~repro.perf.PerformanceEngine` serving
            the per-iteration analyses.  Defaults to a fresh engine per
            Explorer; pass a shared one to keep its caches warm across
            runs (see :func:`repro.dse.sweep.sweep_targets`).
        sym_seen: Optional shared set of already-verified canonical
            hashes.  :func:`repro.dse.sweep.sweep_targets` passes one
            set across its per-target explorers so symmetric neighbors
            are verified once per sweep, not once per target.
    """

    def __init__(
        self,
        target_cycle_time: Number,
        max_iterations: int = 16,
        reorder: bool = True,
        timing_area_budget: float | None = None,
        perf_engine: PerformanceEngine | None = None,
        sym_seen: set[str] | None = None,
    ):
        self.target_cycle_time = target_cycle_time
        self.max_iterations = max_iterations
        self.reorder = reorder
        self.timing_area_budget = timing_area_budget
        self.perf_engine = perf_engine or PerformanceEngine()
        self._sym_seen = sym_seen if sym_seen is not None else set()

    # ------------------------------------------------------------------

    def run(self, config: SystemConfiguration) -> ExplorationResult:
        """Explore from ``config`` until convergence.

        Raises:
            LintError: When the structural pre-flight (``ERM1xx`` /
                ``ERM302``) rejects the specification; the exception
                carries the coded diagnostics.
        """
        from repro.lint import preflight

        preflight(config.system, config.ordering)
        count("dse.runs")

        result = ExplorationResult(target_cycle_time=self.target_cycle_time)
        visited: set[tuple[tuple[str, str], ...]] = {config.selection_key()}
        verified_orderings: set[OrderingFingerprint] = set()
        sym_deduped = 0
        # Computed once, deliberately: the caps depend only on the target
        # and on each process's channel latencies/bufferings — structural
        # quantities that no exploration step (selection or reordering)
        # ever changes — so the initial caps remain valid for the whole
        # run.  See process_latency_caps for the serial-cycle bound.
        caps = process_latency_caps(config, float(self.target_cycle_time))
        incumbent: tuple[float, float, int, SystemConfiguration] | None = None
        fastest: tuple[float, float, int, SystemConfiguration] | None = None
        # Each record's cost: wall time and results-cache lookups since
        # the previous one.
        cache = self.perf_engine.results.stats
        mark, seen = time.perf_counter(), (cache.hits, cache.misses)
        pending_nodes = 0  # ILP nodes solved since the last record

        def append(
            iteration: int,
            action: str,
            cfg: SystemConfiguration,
            performance: SystemPerformance,
            changes: tuple[tuple[str, str], ...] = (),
            reordered: tuple[str, ...] = (),
        ) -> IterationRecord:
            nonlocal mark, seen, pending_nodes
            now = time.perf_counter()
            ct = performance.cycle_time
            record = IterationRecord(
                iteration=iteration,
                action=action,
                cycle_time=ct,
                area=cfg.total_area(),
                slack=self.target_cycle_time - ct,
                meets_target=ct <= self.target_cycle_time,
                critical_processes=performance.critical_processes,
                selection_changes=changes,
                reordered_processes=reordered,
                ilp_nodes=pending_nodes,
                wall_time_s=now - mark,
                cache_hits=cache.hits - seen[0],
                cache_misses=cache.misses - seen[1],
            )
            mark, seen = now, (cache.hits, cache.misses)
            pending_nodes = 0
            result.history.append(record)
            count("dse.iterations")
            observe("dse.iteration.wall_s", record.wall_time_s)
            observe("dse.iteration.cycle_time", float(ct))
            return record

        def consider(record: IterationRecord, cfg: SystemConfiguration) -> None:
            nonlocal incumbent, fastest
            speed_key = (float(record.cycle_time), record.area)
            if fastest is None or speed_key < fastest[:2]:
                fastest = (speed_key[0], speed_key[1], record.iteration, cfg)
            if not record.meets_target:
                return
            key = (record.area, float(record.cycle_time), record.iteration)
            if incumbent is None or key[:2] < incumbent[:2]:
                incumbent = (key[0], key[1], record.iteration, cfg)

        with timed("dse.analyze"):
            performance = self._analyze(config)
        consider(append(0, "start", config, performance), config)

        for iteration in range(1, self.max_iterations + 1):
            slack = self.target_cycle_time - performance.cycle_time
            critical = performance.critical_processes

            if slack > 0:
                problem = area_recovery_problem(
                    config, critical, float(slack), latency_caps=caps
                )
                action = "area_recovery"
            else:
                problem = timing_optimization_problem(
                    config,
                    critical,
                    area_budget=self.timing_area_budget,
                    latency_caps=caps,
                )
                action = "timing_optimization"

            try:
                with timed("dse.ilp"):
                    solution = branch_bound.solve(problem)
            except InfeasibleError:
                count("dse.ilp.infeasible")
                result.stop_reason = f"{action} infeasible"
                break
            except NodeLimitError as error:
                pending_nodes += error.nodes
                result.stop_reason = _node_limit_stop(error)
                break
            pending_nodes += solution.nodes
            count("dse.ilp.solves")
            count("dse.ilp.nodes", solution.nodes)

            changes = self._diff(config, solution.selection)
            candidate = config.with_selection(changes)

            if changes and candidate.selection_key() in visited:
                # The optimum revisits an explored configuration: re-solve
                # with no-good cuts over everything already optimized (the
                # paper's "constraints to discard the configurations
                # already optimized").
                for key in visited:
                    full = dict(key)
                    cut = {g.name: full[g.name] for g in problem.groups}
                    # The latency caps can drop a visited implementation
                    # from its group; that configuration is then not
                    # selectable and needs no cut.  (The revisited one
                    # always is, so at least one cut is added.)
                    if all(cut[g.name] in g.choice_names for g in problem.groups):
                        problem.forbid(cut)
                try:
                    with timed("dse.ilp"):
                        solution = branch_bound.solve(problem)
                except InfeasibleError:
                    count("dse.ilp.infeasible")
                    result.stop_reason = "all candidate configurations visited"
                    break
                except NodeLimitError as error:
                    pending_nodes += error.nodes
                    result.stop_reason = _node_limit_stop(error)
                    break
                pending_nodes += solution.nodes
                count("dse.ilp.solves")
                count("dse.ilp.nodes", solution.nodes)
                changes = self._diff(config, solution.selection)
                candidate = config.with_selection(changes)
                if changes and candidate.selection_key() in visited:
                    result.stop_reason = "exploration cycled"
                    break

            reordered: tuple[str, ...] = ()
            if self.reorder:
                with timed("dse.reorder"):
                    new_ordering = self._reorder(candidate)
                reordered = new_ordering.differs_from(candidate.ordering)
                count("dse.reorder.runs")
                count("dse.reorder.changed_processes", len(reordered))
                if reordered:
                    candidate = candidate.with_ordering(new_ordering)
                # Even an unchanged result is an ordering Algorithm 1
                # produced — machine-check each distinct one once per run
                # and once per orbit: an ordering isomorphic to an
                # already-verified one shares its verdict.
                fingerprint = _ordering_fingerprint(new_ordering)
                if fingerprint not in verified_orderings:
                    verified_orderings.add(fingerprint)
                    canonical = self._canonical_key(candidate)
                    if canonical is not None and canonical in self._sym_seen:
                        sym_deduped += 1
                        count("dse.sym.verify_deduped")
                    else:
                        with timed("dse.verify"):
                            self._verify_ordering(candidate)
                        if canonical is not None:
                            # Only a check that *returned* marks the
                            # orbit verified (a deadlock raises out).
                            self._sym_seen.add(canonical)

            if not changes and not reordered:
                append(iteration, "none", config, performance)
                result.stop_reason = "converged (no applicable changes)"
                break

            visited.add(candidate.selection_key())
            config = candidate
            with timed("dse.analyze"):
                performance = self._analyze(config)
            record = append(
                iteration,
                action,
                config,
                performance,
                tuple(sorted(changes.items())),
                reordered,
            )
            consider(record, config)
        else:
            result.stop_reason = "iteration limit reached"
        if pending_nodes:
            # The iteration that ended the run made no record of its own.
            last = result.history[-1]
            result.history[-1] = replace(
                last, ilp_nodes=last.ilp_nodes + pending_nodes
            )

        if incumbent is not None:
            result.final = incumbent[3]
            result.final_index = incumbent[2]
        elif fastest is not None:
            # The target was never met: return the fastest configuration
            # seen (the closest approach), not whatever the loop ended on.
            result.final = fastest[3]
            result.final_index = fastest[2]
        else:
            result.final = config
            result.final_index = len(result.history) - 1
        if sym_deduped:
            _log.info(
                "dse.sym: skipped %d symmetric re-verification(s) for %r "
                "(orderings isomorphic to an already machine-checked one)",
                sym_deduped,
                config.system.name,
            )
        result.cache_stats = self.perf_engine.stats_dict()
        registry = active()
        if registry is not None:
            registry.merge_cache_stats(result.cache_stats)
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _diff(config: SystemConfiguration, selection) -> dict[str, str]:
        return {
            process: impl
            for process, impl in selection.items()
            if config.selection[process] != impl
        }

    def _analyze(self, config: SystemConfiguration) -> SystemPerformance:
        return analyze_system(
            config.system,
            config.ordering,
            process_latencies=config.process_latencies(),
            perf_engine=self.perf_engine,
        )

    #: Per-reordering verification budget: generous for SMALL_SYSTEM_LIMIT
    #: state spaces, yet bounding the worst case to a blink per iteration.
    VERIFY_BUDGET_STATES = 50_000
    VERIFY_BUDGET_SECONDS = 1.0

    def _verify_ordering(self, config: SystemConfiguration) -> None:
        """Check Algorithm 1's output: static preflight, then BFS.

        The abstract-interpretation preflight (:mod:`repro.absint`) runs
        first at every scale.  A statically-proved deadlock (token-free
        cycle) prunes the candidate immediately by raising
        :class:`~repro.errors.DeadlockError` — no state-space search is
        ever spent on it.  A validated deadlock-freedom certificate is
        the *only* guarantee available above
        :data:`~repro.verify.checker.SMALL_SYSTEM_LIMIT`; on small
        systems the exhaustive BFS still runs as an independent
        cross-check of both the certificate and Algorithm 1.

        A :class:`~repro.errors.DeadlockError` propagates (a verified
        deadlock in a safe-by-construction ordering is an engine bug); a
        :class:`~repro.errors.BudgetExceeded` is swallowed — the
        structural liveness guarantee of Algorithm 1 stands on its own,
        and a deferred machine-check must not fail the exploration.
        """
        from repro.absint import analyze, check_certificate
        from repro.errors import BudgetExceeded
        from repro.verify.checker import is_small_system, verify_ordering

        count("dse.absint.runs")
        static = analyze(config.system, config.ordering)
        if static.token_free_cycle is not None:
            count("dse.absint.deadlock_pruned")
            cycle_text = " -> ".join(static.token_free_cycle)
            raise DeadlockError(
                f"static preflight pruned the ordering for "
                f"{config.system.name!r}: token-free cycle {cycle_text}",
                cycle=list(static.token_free_cycle),
            )
        certificate = static.certificate
        assert certificate is not None  # no cycle => certified
        if not is_small_system(config.system):
            # Beyond BFS scale the certificate *is* the verification:
            # re-validate it independently before accepting.
            check_certificate(self._lowered(config), certificate)
            count("dse.absint.certified")
            return
        count("dse.absint.bfs_crosschecks")
        count("dse.verify.runs")
        try:
            verify_ordering(
                config.system,
                config.ordering,
                budget_states=self.VERIFY_BUDGET_STATES,
                budget_seconds=self.VERIFY_BUDGET_SECONDS,
            )
        except BudgetExceeded:
            count("dse.verify.inconclusive")

    def _canonical_key(self, config: SystemConfiguration) -> str | None:
        """Orbit-canonical hash of the candidate's lowered IR.

        ``None`` when the labeling hit its node budget — an incomplete
        canonical form must not serve as a dedup key (isomorphic inputs
        could disagree), so such candidates are verified concretely.
        Families declared by the composition layer seed the labeling, so
        a DSL-built replicated fabric pays table verification instead of
        a rediscovery descent.
        """
        from repro.sym import analyze_symmetry, declared_seeds

        ir = self._lowered(config)
        families = config.system.declared_families
        seeds = declared_seeds(ir, families) if families else ()
        analysis = analyze_symmetry(ir, seeds=seeds)
        return analysis.canonical_hash if analysis.complete else None

    @staticmethod
    def _lowered(config: SystemConfiguration) -> "LoweredIR":
        from repro.ir import lower

        return lower(config.system, config.ordering)

    def _reorder(self, config: SystemConfiguration) -> ChannelOrdering:
        system = config.system.with_process_latencies(config.process_latencies())
        try:
            return channel_ordering(system, initial_ordering=config.ordering)
        except DeadlockError:
            # Structurally dead systems were rejected earlier; a failure
            # here means the topology lacks sources/sinks for the
            # traversal, so keep the current (valid) ordering.
            return config.ordering


def explore(
    config: SystemConfiguration,
    target_cycle_time: Number,
    **kwargs,
) -> ExplorationResult:
    """One-call convenience wrapper around :class:`Explorer`."""
    return Explorer(target_cycle_time, **kwargs).run(config)
