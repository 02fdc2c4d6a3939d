"""Text, JSON, and SARIF 2.1.0 renderers."""

import json

from repro.lint import lint_system, render_json, render_sarif, render_text
from repro.lint.registry import catalog
from repro.lint.render import sarif_dict


class TestText:
    def test_clean_design(self, motivating, optimal_ordering):
        result = lint_system(motivating, optimal_ordering,
                             ignore=["ERM4"])
        assert render_text(result) == "motivating: clean (no findings)\n"

    def test_summary_line_and_fixable_hint(self, motivating,
                                           deadlock_ordering):
        text = render_text(lint_system(motivating, deadlock_ordering))
        assert text.startswith("ERM201 error [")
        assert "ERM501 error [" in text  # the exhaustive confirmation
        assert "2 errors" in text
        assert "fixable with --fix" in text

    def test_verbose_appends_fix_descriptions(self, motivating,
                                              suboptimal_ordering):
        result = lint_system(motivating, suboptimal_ordering)
        assert "fix[ERM301]:" in render_text(result, verbose=True)
        assert "fix[ERM301]:" not in render_text(result)


class TestJson:
    def test_document_shape(self, motivating, deadlock_ordering):
        doc = json.loads(render_json(lint_system(motivating,
                                                 deadlock_ordering)))
        assert doc["subject"] == "motivating"
        assert doc["summary"]["errors"] == 2  # ERM201 + its ERM501 proof
        assert doc["summary"]["fixable"] == 1
        [erm201] = [d for d in doc["diagnostics"] if d["rule"] == "ERM201"]
        assert erm201["severity"] == "error"
        assert erm201["fixable"] is True
        # The fix is machine-readable: per-process corrected sequences.
        assert set(erm201["fix"]) == {"description", "gets", "puts"}


class TestSarif:
    """Shape sanity of the SARIF 2.1.0 log (acceptance criterion)."""

    def test_top_level_shape(self, motivating, deadlock_ordering):
        doc = sarif_dict(lint_system(motivating, deadlock_ordering))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_driver_carries_the_full_rule_catalog(self, motivating):
        doc = sarif_dict(lint_system(motivating))
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "ermes-lint"
        assert driver["version"]
        codes = {r["id"] for r in driver["rules"]}
        assert codes == {rule.code for rule in catalog()}
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note"
            )

    def test_results_reference_rules_and_logical_locations(
        self, motivating, deadlock_ordering
    ):
        doc = sarif_dict(lint_system(motivating, deadlock_ordering))
        run = doc["runs"][0]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert run["results"], "the deadlocking design must have results"
        for res in run["results"]:
            assert res["ruleId"] in ids
            assert ids[res["ruleIndex"]] == res["ruleId"]
            assert res["level"] in ("error", "warning", "note")
            assert res["message"]["text"]
            for location in res["locations"]:
                for logical in location["logicalLocations"]:
                    assert logical["kind"] in ("process", "channel")
                    assert logical["fullyQualifiedName"] == (
                        f"motivating::{logical['name']}"
                    )

    def test_info_maps_to_note(self, motivating, optimal_ordering):
        doc = sarif_dict(lint_system(motivating, optimal_ordering,
                                     select=["ERM401"]))
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert levels == {"note"}

    def test_render_sarif_is_valid_json(self, motivating):
        assert json.loads(render_sarif(lint_system(motivating)))
