"""CLI tests for the observability commands (trace / profile / report)."""

import json

import pytest

from repro.cli import main
from repro.core import motivating_example, pipeline, save_system


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "system.json"
    save_system(motivating_example(), path)
    return str(path)


@pytest.fixture()
def pipeline_file(tmp_path):
    path = tmp_path / "pipe.json"
    save_system(pipeline(3), path)
    return str(path)


class TestTraceCommand:
    def test_perfetto_to_stdout_is_valid_json(self, system_file, capsys):
        assert main(["trace", system_file, "--format", "perfetto",
                     "--iterations", "10"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]
        assert {e["ph"] for e in document["traceEvents"]} >= {"M", "X", "C"}

    def test_perfetto_to_file(self, system_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", system_file, "-o", str(out)]) == 0
        json.loads(out.read_text())
        assert "events" in capsys.readouterr().out

    def test_vcd_monotonic_timestamps(self, system_file, capsys):
        assert main(["trace", system_file, "--format", "vcd",
                     "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "$enddefinitions $end" in out
        times = [int(line[1:]) for line in out.splitlines()
                 if line.startswith("#")]
        assert times == sorted(set(times))

    def test_jsonl_one_object_per_line(self, pipeline_file, capsys):
        assert main(["trace", pipeline_file, "--format", "jsonl",
                     "--iterations", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert "time" in record and "kind" in record

    def test_text_format(self, pipeline_file, capsys):
        assert main(["trace", pipeline_file, "--format", "text",
                     "--iterations", "3", "--limit", "5"]) == 0
        assert "compute" in capsys.readouterr().out


class TestProfileCommand:
    def test_text_output_has_phases_and_cache(self, system_file, capsys):
        assert main(["profile", system_file, "--max-iterations", "4",
                     "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "profile.order" in out
        assert "profile.analyze" in out
        assert "profile.dse" in out
        assert "cache.results.hits" in out
        assert "convergence" in out

    def test_json_one_snapshot_per_iteration(self, system_file, capsys):
        assert main(["profile", system_file, "--json",
                     "--max-iterations", "4", "--no-simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        iterations = payload["iterations"]
        assert iterations
        assert [row["iteration"] for row in iterations] == list(
            range(len(iterations))
        )
        assert "metrics" in payload
        assert "cache.results.misses" in payload["metrics"]["counters"]

    def test_json_covers_every_instrumented_layer(self, pipeline_file, capsys):
        """One collect() around the run reaches every layer and memo.

        The pinned counts do not depend on the hash seed; the DSE
        trajectory does (its ILP nodes and reorder count vary with it),
        so those are checked by relation only.
        """
        from repro.cache import memos

        for memo in memos().values():  # cold, as in a fresh process
            memo.clear()
        assert main(["profile", pipeline_file, "--json"]) == 0
        counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        assert {
            name: counters[name] for name in (
                "cache.lower.misses",
                "cache.preflight.hits",
                "cache.preflight.misses",
                "cache.preflight.evictions",
                "cache.absint.misses",
                "cache.sym.misses",
                "cache.walk.hits",
                "cache.walk.misses",
                "dse.absint.runs",
                "sim.transfers",
                "verify.runs",
                "verify.states.explored",
            )
        } == {
            "cache.lower.misses": 1,
            "cache.preflight.hits": 2,
            "cache.preflight.misses": 1,
            "cache.preflight.evictions": 0,
            "cache.absint.misses": 1,
            "cache.sym.misses": 1,
            "cache.walk.hits": 0,
            "cache.walk.misses": 1,
            "dse.absint.runs": 1,
            "sim.transfers": 400,
            "verify.runs": 1,
            "verify.states.explored": 7,
        }
        # The CLI's own Algorithm 1 run plus one per DSE reordering.
        assert counters["ordering.runs"] == 1 + counters["dse.reorder.runs"]
        assert counters["dse.ilp.nodes"] > 0

    def test_explicit_target(self, system_file, capsys):
        assert main(["profile", system_file, "--target", "9",
                     "--max-iterations", "3", "--no-simulate"]) == 0
        assert "DSE target 9.0" in capsys.readouterr().out


class TestReportStallSection:
    def test_stall_section_present(self, system_file, capsys):
        assert main(["report", system_file, "--no-sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "## Stall attribution (simulated)" in out
        assert "waiting on" in out

    def test_no_stalls_flag(self, system_file, capsys):
        assert main(["report", system_file, "--no-sensitivity",
                     "--no-stalls"]) == 0
        assert "Stall attribution" not in capsys.readouterr().out
