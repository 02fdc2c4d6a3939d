"""The diagnostics vocabulary and the rule catalog."""

import pytest

from repro.diagnostics import (
    Diagnostic,
    LintError,
    OrderingFix,
    Severity,
    sorted_diagnostics,
)
from repro.errors import ValidationError
from repro.lint.context import LintContext
from repro.lint.registry import Rule, catalog, category


def _diag(rule="ERM999", severity=Severity.WARNING, location=()):
    return Diagnostic(rule=rule, severity=severity, message="m",
                      location=location)


class TestSeverity:
    def test_total_order(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.INFO <= Severity.INFO
        assert sorted([Severity.ERROR, Severity.INFO, Severity.WARNING],
                      reverse=True) == [Severity.ERROR, Severity.WARNING,
                                        Severity.INFO]


class TestDiagnostic:
    def test_format_with_location(self):
        d = Diagnostic(rule="ERM201", severity=Severity.ERROR,
                       message="boom", location=("P2", "d"))
        assert d.format() == "ERM201 error [P2, d]: boom"

    def test_format_without_location(self):
        d = Diagnostic(rule="ERM101", severity=Severity.INFO, message="x")
        assert d.format() == "ERM101 info: x"

    def test_sorted_most_severe_first(self):
        out = sorted_diagnostics([
            _diag("ERM402", Severity.INFO),
            _diag("ERM201", Severity.ERROR),
            _diag("ERM301", Severity.WARNING),
        ])
        assert [d.rule for d in out] == ["ERM201", "ERM301", "ERM402"]

    def test_fixable(self):
        assert not _diag().fixable
        fix = OrderingFix(description="f", puts={"P": ("a",)})
        d = Diagnostic(rule="ERM301", severity=Severity.WARNING,
                       message="m", fix=fix)
        assert d.fixable
        assert fix.touched_processes == ("P",)


class TestLintError:
    def test_is_validation_error_with_codes(self):
        error = LintError([_diag("ERM302", Severity.ERROR),
                           _diag("ERM104", Severity.ERROR)])
        assert isinstance(error, ValidationError)
        assert error.rule_codes == ("ERM104", "ERM302")
        assert "ERM302" in str(error)
        assert "2 lint findings" in str(error)


class TestRegistry:
    def test_default_catalog_codes(self):
        codes = {r.code for r in catalog()}
        # Every documented rule is present; the catalog only grows.
        for code in ("ERM101", "ERM108", "ERM201", "ERM301", "ERM302",
                     "ERM303", "ERM401", "ERM402"):
            assert code in codes

    def test_bad_code_rejected(self):
        with pytest.raises(ValidationError):
            Rule(code="X1", name="n", severity=Severity.INFO, summary="s",
                 check=lambda ctx: ())

    def test_duplicate_code_rejected(self):
        from repro.lint.registry import rule

        before = catalog()
        with pytest.raises(ValidationError, match="duplicate"):
            rule("ERM301", "n", Severity.INFO, "s")(lambda ctx: ())
        assert catalog() == before

    def test_rule_must_emit_its_own_code(self, motivating):
        rule = Rule(code="ERM900", name="n", severity=Severity.INFO,
                    summary="s",
                    check=lambda ctx: [_diag("ERM901", Severity.INFO)])
        with pytest.raises(ValidationError, match="ERM901"):
            rule.run(LintContext(motivating))

    def test_select_by_prefix(self):
        chosen = catalog(select=["ERM3"])
        assert {r.code for r in chosen} == {"ERM301", "ERM302", "ERM303"}

    def test_ignore_wins_over_select(self):
        chosen = catalog(select=["ERM3"], ignore=["ERM302"])
        assert {r.code for r in chosen} == {"ERM301", "ERM303"}

    def test_unknown_selector_raises(self):
        with pytest.raises(ValidationError, match="ERM9"):
            catalog(select=["ERM9"])

    def test_category(self):
        assert category("ERM101") == "structural"
        assert category("ERM201") == "deadlock"
        assert category("ERM301") == "performance"
        assert category("ERM402") == "hygiene"
