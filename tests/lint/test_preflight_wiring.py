"""The structural pre-flight is wired into simulation, DSE, and sweeps."""

import pytest

from repro.diagnostics import LintError
from repro.dse import Explorer, SystemConfiguration
from repro.dse.sweep import sweep_targets
from repro.errors import ValidationError
from repro.hls import Implementation, ImplementationLibrary, ParetoSet
from repro.ordering import declaration_ordering
from repro.sim import Simulator


def _config(system):
    library = ImplementationLibrary([
        ParetoSet.from_points(w.name, [Implementation("only", 2, 1.0)])
        for w in system.workers()
    ])
    selection = {w.name: "only" for w in system.workers()}
    return SystemConfiguration(system, library, selection,
                               declaration_ordering(system))


class TestSimulator:
    def test_rejects_token_free_loop_with_codes(self, token_free_ring):
        with pytest.raises(LintError) as excinfo:
            Simulator(token_free_ring)
        assert excinfo.value.rule_codes == ("ERM302",)

    def test_still_raises_validation_error_for_old_callers(
        self, token_free_ring
    ):
        with pytest.raises(ValidationError):
            Simulator(token_free_ring)

    def test_accepts_live_design(self, feedback_system):
        Simulator(feedback_system)


class TestExplorer:
    def test_run_rejects_token_free_loop(self, token_free_ring):
        with pytest.raises(LintError) as excinfo:
            Explorer(target_cycle_time=100).run(_config(token_free_ring))
        assert "ERM302" in excinfo.value.rule_codes

    def test_sweep_rejects_token_free_loop(self, token_free_ring):
        with pytest.raises(LintError):
            sweep_targets(_config(token_free_ring), targets=[100, 50])

    def test_run_accepts_live_design(self, feedback_system):
        result = Explorer(target_cycle_time=1000).run(
            _config(feedback_system)
        )
        assert result.final is not None


class TestPreflightMemo:
    """Successful pre-flights are served from the memo."""

    @pytest.fixture(autouse=True)
    def _fresh(self):
        from repro.cache import memos

        memos()["preflight"].clear()
        yield
        memos()["preflight"].clear()

    def test_second_run_skips_the_rules(self, feedback_system, monkeypatch):
        import repro.lint.engine as engine
        from repro.lint import preflight

        preflight(feedback_system)
        calls = []
        monkeypatch.setattr(
            engine,
            "lint_system",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(
                AssertionError("memoized pre-flight re-ran the rules")
            ),
        )
        preflight(feedback_system)
        assert not calls

    def test_failures_are_never_memoized(self, token_free_ring):
        from repro.lint import preflight

        with pytest.raises(LintError):
            preflight(token_free_ring)
        with pytest.raises(LintError):
            preflight(token_free_ring)

    def test_unknown_process_ordering_is_not_memoized(self, feedback_system):
        from repro.core import ChannelOrdering
        from repro.lint import preflight

        declaration = ChannelOrdering.declaration_order(feedback_system)
        # A valid pass first, so an aliasing bug would wrongly hit.
        preflight(feedback_system, declaration)
        haunted = ChannelOrdering(
            gets={**declaration.gets, "ghost": ("i",)},
            puts=dict(declaration.puts),
        )
        with pytest.raises(LintError) as excinfo:
            preflight(feedback_system, haunted)
        assert "ERM108" in excinfo.value.rule_codes

    def test_latency_change_shares_the_memo_entry(
        self, feedback_system, monkeypatch
    ):
        import repro.lint as lint

        lint.preflight(feedback_system)
        faster = feedback_system.with_process_latencies(
            {p.name: 1 for p in feedback_system.processes}
        )
        calls = []
        monkeypatch.setattr(
            lint,
            "lint_system",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(
                AssertionError("latency-only change missed the memo")
            ),
        )
        lint.preflight(faster)
        assert not calls
