"""The memoized analysis context shared by all lint rules.

Several rules need the same expensive facts — is the ordering a valid
permutation, does the configuration deadlock, what does Algorithm 1
produce, what cycle time does an ordering achieve.  :class:`LintContext`
computes each fact once, on first access, and keeps it for the rest of
the lint run.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.system import ChannelOrdering, SystemGraph
from repro.core.validation import ordering_diagnostics, structural_diagnostics
from repro.diagnostics import Diagnostic
from repro.errors import DeadlockError, ReproError
from repro.tmg.event_graph import _components

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.absint import AbsIntResult
    from repro.hls.pareto import ImplementationLibrary
    from repro.ir import LoweredIR
    from repro.model.build import CircularWait
    from repro.model.performance import SystemPerformance
    from repro.sym import SigPolicy, SymmetryAnalysis, VerifiedFamily
    from repro.verify.checker import VerificationResult

#: Lint-scale exhaustive-verification budget.  Lint runs as a pre-flight
#: before every exploration and simulation, so the ERM5xx rules get a
#: deliberately small slice of the checker's default budget; a run that
#: exhausts it reports INCONCLUSIVE and the rules stay silent rather than
#: guessing.
VERIFY_BUDGET_STATES = 20_000
VERIFY_BUDGET_SECONDS = 1.0


class LintContext:
    """Everything a rule may ask about one ``(system, ordering, library)``.

    Rules must treat the context as read-only.  Every derived fact is a
    cached property, computed on first access, so rule order never affects
    cost, and rules that depend on a *sound* configuration (deadlock and
    performance rules) can gate on :attr:`structure_ok`/:attr:`ordering_ok`
    cheaply.
    """

    def __init__(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        library: "ImplementationLibrary | None" = None,
    ):
        self.system = system
        self.ordering = ordering or ChannelOrdering.declaration_order(system)
        self.library = library

    # ------------------------------------------------------------------
    # Structural soundness
    # ------------------------------------------------------------------

    @cached_property
    def structural(self) -> list[Diagnostic]:
        """The ``ERM101``–``ERM107`` findings of the system alone."""
        return structural_diagnostics(self.system)

    @cached_property
    def ordering_issues(self) -> list[Diagnostic]:
        """The ``ERM108`` ordering ↔ topology findings."""
        return ordering_diagnostics(self.system, self.ordering)

    @property
    def structure_ok(self) -> bool:
        """True when the topology has no structural errors."""
        return not self.structural

    @property
    def ordering_ok(self) -> bool:
        """True when the ordering is a valid permutation of every port."""
        return not self.ordering_issues

    @property
    def sound(self) -> bool:
        """True when deeper (deadlock/performance) analysis is meaningful."""
        return self.structure_ok and self.ordering_ok

    # ------------------------------------------------------------------
    # Lowered program
    # ------------------------------------------------------------------

    @cached_property
    def ir(self) -> "LoweredIR | None":
        """The lowered program of ``(system, ordering)``, or ``None``.

        ``None`` when the configuration is not sound (an invalid ordering
        has no well-defined lowering).  Served from the process-wide
        lowering memo, so the simulator, verifier, and performance engine
        the lint run precedes all reuse this exact object, and it is the
        key of every memo of a fact derived from it.
        """
        if not self.sound:
            return None
        from repro.ir import lower

        return lower(self.system, self.ordering)

    @cached_property
    def absint(self) -> "AbsIntResult | None":
        """The abstract-interpretation facts of the configuration.

        Occupancy bounds, dead channels, unreachable statements, and the
        deadlock-freedom certificate (:func:`repro.absint.analyze_ir`),
        or ``None`` when the configuration is not sound.  Served from the
        absint result cache keyed on :attr:`ir`, so the verifier and the
        explorer running after a lint pre-flight reuse this exact result.
        """
        ir = self.ir
        if ir is None:
            return None
        from repro.absint import analyze_ir

        return analyze_ir(ir)

    @cached_property
    def symmetry(self) -> "SymmetryAnalysis | None":
        """The strict (``EXACT``-policy) symmetry analysis, or ``None``.

        Canonical labeling of the lowered program
        (:func:`repro.sym.analyze_symmetry`): process/channel orbits,
        verified generator permutations, and the orbit-canonical hash.
        ``None`` when the configuration is not sound.  Served from the
        process-wide symmetry memo, so the verifier and explorer that run
        after a lint pre-flight reuse this exact analysis.  Runs at every
        system scale — the labeling budget is adaptive and refinement
        alone settles asymmetric designs quickly.
        """
        from repro.sym import EXACT

        return self._analyze_symmetry(EXACT)

    @cached_property
    def symmetry_order_relaxed(self) -> "SymmetryAnalysis | None":
        """Program-order-insensitive symmetry, or ``None``.

        The ``ORDER_RELAXED`` policy ignores statement order inside
        processes (channel attributes still matter), exposing design
        families whose members differ only by ordering.  Small systems
        only — the relaxed rules that consume this enumerate group
        elements, which is a small-system pastime.
        """
        from repro.sym import ORDER_RELAXED

        return self._analyze_symmetry(ORDER_RELAXED, small_only=True)

    @cached_property
    def symmetry_topology_relaxed(self) -> "SymmetryAnalysis | None":
        """Pure endpoint-topology symmetry, or ``None``.

        Relaxes *both* statement order and channel attributes, grouping
        channels by the shape of the communication graph alone — the
        lens under which an asymmetric capacity inside an otherwise
        replicated family becomes visible (ERM703).  Small systems only.
        """
        from repro.sym import TOPOLOGY_RELAXED

        return self._analyze_symmetry(TOPOLOGY_RELAXED, small_only=True)

    @cached_property
    def declared_families(self) -> "tuple[VerifiedFamily, ...] | None":
        """The system's declared replication families, verified — or ``None``.

        ``None`` when the configuration is not sound or the system
        declares no families; otherwise the subset of declarations whose
        generators pass table verification against the lowered program
        (:func:`repro.sym.verify_families`), each tagged with the
        strongest policy it holds under (``EXACT``, or ``ORDER_RELAXED``
        when a shared endpoint serializes the lanes).  The empty tuple
        means families were declared but none survived — a drift signal
        rules may ignore.  This is the fast path ERM701 reports from
        without running the canonical-labeling search.
        """
        ir = self.ir
        if ir is None or not self.system.declared_families:
            return None
        from repro.sym import verify_families

        return verify_families(ir, self.system.declared_families)

    def _analyze_symmetry(
        self, policy: "SigPolicy", small_only: bool = False
    ) -> "SymmetryAnalysis | None":
        ir = self.ir
        if ir is None:
            return None
        if small_only:
            from repro.verify.checker import is_small_system

            if not is_small_system(self.system):
                return None
        from repro.sym import analyze_symmetry, declared_seeds

        seeds = (
            declared_seeds(ir, self.system.declared_families)
            if self.system.declared_families
            else ()
        )
        return analyze_symmetry(ir, policy=policy, seeds=seeds)

    # ------------------------------------------------------------------
    # Deadlock facts
    # ------------------------------------------------------------------

    @cached_property
    def deadlock_witness(self) -> "CircularWait | None":
        """The circular wait of the current ordering, or ``None`` if live.

        :attr:`repro.model.build.StructureEntry.circular_wait` of the
        lowered program: process and channel names plus the blocked
        statements.  ``None`` as well when the configuration is not sound
        enough to lower.
        """
        ir = self.ir
        if ir is None:
            return None
        from repro.model.build import build_structure

        return build_structure(ir).circular_wait

    @cached_property
    def token_free_topology_loops(self) -> list[tuple[str, ...]]:
        """Topology cycles on which *no* channel carries an initial token.

        Every such loop deadlocks under **every** statement ordering: the
        forward path through each member process (from its get of the
        incoming loop channel to its put of the outgoing one) crosses only
        unmarked places, so the loop closes a token-free TMG cycle
        regardless of how gets and puts are ordered.  Reordering cannot
        help — only pre-loading a channel (``initial_tokens >= 1``) can.

        One witness cycle (alternating process and channel names,
        starting at a process) per strongly-connected component of the
        zero-token channel subgraph.
        """
        return _token_free_loops(self.system)

    @property
    def reordering_can_fix_deadlock(self) -> bool:
        """True when the deadlock is ordering-induced (Algorithm 1 helps)."""
        return not self.token_free_topology_loops

    @cached_property
    def verification(self) -> "VerificationResult | None":
        """Exhaustive deadlock verdict from the model checker, or ``None``.

        Runs :func:`repro.verify.check_deadlock` once, under the small
        lint-scale budget.  ``None`` when the configuration is not sound
        or the system is above :data:`repro.verify.checker.SMALL_SYSTEM_LIMIT` —
        the ERM5xx rules only fire on conclusive verdicts, so a skipped or
        budget-exhausted run never silently passes *or* fails anything.
        """
        if not self.sound:
            return None
        from repro.verify.checker import check_deadlock, is_small_system

        if not is_small_system(self.system):
            return None
        return check_deadlock(
            self.system,
            self.ordering,
            budget_states=VERIFY_BUDGET_STATES,
            budget_seconds=VERIFY_BUDGET_SECONDS,
        )

    # ------------------------------------------------------------------
    # Performance facts
    # ------------------------------------------------------------------

    @cached_property
    def optimized_ordering(self) -> ChannelOrdering | None:
        """The Algorithm-1 ordering, or ``None`` when it cannot be built.

        Seeded with the current ordering so timestamp tie-breaks match
        what a designer running ``ermes order`` would get.
        """
        if not self.sound:
            return None
        from repro.ordering.algorithm import channel_ordering

        try:
            return channel_ordering(self.system, initial_ordering=self.ordering)
        except ReproError:
            return None

    def performance_of(
        self, ordering: ChannelOrdering
    ) -> "SystemPerformance | None":
        """Exact cycle-time analysis of ``ordering``, or ``None`` on
        deadlock."""
        from repro.model.performance import analyze_system

        try:
            return analyze_system(self.system, ordering)
        except DeadlockError:
            return None


def _token_free_loops(system: SystemGraph) -> list[tuple[str, ...]]:
    """One process/channel witness cycle per dead SCC of the zero-token
    channel subgraph (Tarjan over its CSR lists; linear time)."""
    names = system.process_names
    pid = {name: i for i, name in enumerate(names)}
    edges: dict[str, list[tuple[str, str]]] = {name: [] for name in names}
    for channel in system.channels:
        if channel.initial_tokens == 0:
            edges[channel.producer].append((channel.consumer, channel.name))
    start = [0]
    target: list[int] = []
    for name in names:
        target.extend(pid[consumer] for consumer, _ in edges[name])
        start.append(len(target))

    loops: list[tuple[str, ...]] = []
    for component in _components(start, target):
        if len(component) > 1:
            members = {names[u] for u in component}
            loops.append(_witness_in_scc(edges, min(members), members))
    loops.sort()
    return loops


def _witness_in_scc(
    edges: dict[str, list[tuple[str, str]]], start: str, members: set[str]
) -> tuple[str, ...]:
    """A concrete cycle through ``start`` inside one SCC, as alternating
    process and channel names."""
    # DFS from start constrained to the SCC until we loop back to start.
    path: list[tuple[str, str | None]] = [(start, None)]
    seen = {start}
    work: list[int] = [0]
    while work:
        node = path[-1][0]
        i = work[-1]
        succs = [e for e in edges[node] if e[0] in members]
        if i < len(succs):
            work[-1] += 1
            successor, channel = succs[i]
            if successor == start:
                path.append((successor, channel))
                cycle: list[str] = []
                for k in range(len(path) - 1):
                    cycle.append(path[k][0])
                    cycle.append(path[k + 1][1] or "")
                return tuple(cycle)
            if successor not in seen:
                seen.add(successor)
                path.append((successor, channel))
                work.append(0)
        else:
            work.pop()
            path.pop()
    return (start,)  # unreachable for a true SCC; defensive
