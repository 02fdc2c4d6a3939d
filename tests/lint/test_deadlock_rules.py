"""ERM201 (ordering-induced deadlock) and ERM302 (token-free loops)."""

import pytest

from repro.diagnostics import LintError, Severity
from repro.ir import lower
from repro.lint import apply_fixes, format_witness, lint_system, preflight
from repro.lint.witness import statement_at
from repro.model import build_structure, deadlock_cycle


class TestERM201:
    """The paper's Section 2 deadlock, diagnosed and fixed."""

    def test_fires_on_listing1_ordering(self, motivating, deadlock_ordering):
        result = lint_system(motivating, deadlock_ordering)
        findings = [d for d in result if d.rule == "ERM201"]
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR

    def test_message_names_the_circular_wait(self, motivating,
                                             deadlock_ordering):
        [diag] = [d for d in lint_system(motivating, deadlock_ordering)
                  if d.rule == "ERM201"]
        # The blocked statements of the witness, with their positions.
        assert "circular wait" in diag.message
        assert "P2 puts 'f'" in diag.message
        assert "P6 gets 'd'" in diag.message
        assert "statement" in diag.message
        # The location carries the cycle's design elements.
        assert set(diag.location) <= (
            set(motivating.process_names)
            | {c.name for c in motivating.channels}
        )

    def test_fix_makes_the_design_live(self, motivating, deadlock_ordering):
        result = lint_system(motivating, deadlock_ordering)
        [diag] = [d for d in result if d.rule == "ERM201"]
        assert diag.fixable
        outcome = apply_fixes(motivating, deadlock_ordering,
                              result.diagnostics)
        assert outcome.changed
        assert deadlock_cycle(motivating, outcome.ordering) is None

    def test_silent_on_live_orderings(self, motivating, optimal_ordering,
                                      suboptimal_ordering):
        for ordering in (optimal_ordering, suboptimal_ordering):
            assert "ERM201" not in lint_system(motivating, ordering).codes()

    def test_witness_statements_cover_the_cycle(self, motivating,
                                                deadlock_ordering):
        wait = build_structure(lower(motivating, deadlock_ordering)).circular_wait
        assert wait is not None
        # A rendezvous-only cycle: every edge is a statement place.
        assert len(wait.statements) == len(wait.cycle)
        statements = [
            statement_at(deadlock_ordering, process, index, waits_for)
            for process, index, waits_for in wait.statements
        ]
        for s in statements:
            assert 1 <= s.index <= s.total
            assert s.kind in {"get", "put", "compute"}
        text = format_witness(deadlock_ordering, wait.statements)
        assert " -> ".join(s.format() for s in statements) == text


class TestERM302:
    def test_fires_on_token_free_loop(self, token_free_ring):
        result = lint_system(token_free_ring)
        [diag] = [d for d in result if d.rule == "ERM302"]
        assert diag.severity is Severity.ERROR
        assert "initial_tokens" in diag.message
        assert {"w0", "w1", "fwd", "back"} == set(diag.location)
        # ERM302 owns this: no ordering can fix it, so ERM201 stays quiet.
        assert "ERM201" not in result.codes()

    def test_preflight_raises_with_codes(self, token_free_ring):
        with pytest.raises(LintError) as excinfo:
            preflight(token_free_ring)
        assert excinfo.value.rule_codes == ("ERM302",)

    def test_silent_when_loop_is_preloaded(self, feedback_system):
        assert "ERM302" not in lint_system(feedback_system).codes()
        preflight(feedback_system)  # must not raise

    def test_preflight_accepts_the_motivating_deadlock(self, motivating,
                                                       deadlock_ordering):
        # Ordering-induced deadlock is an analysis-time concern (ERM201),
        # deliberately outside the structural preflight.
        preflight(motivating, deadlock_ordering)
