"""CLI tests (in-process via main())."""

import pytest

from repro.cli import main
from repro.core import (
    motivating_deadlock_ordering,
    motivating_example,
    save_ordering,
    save_system,
)


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "system.json"
    save_system(motivating_example(), path)
    return str(path)


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "36 possible orderings" in out
        assert "DEADLOCK" in out
        assert "cycle time 12" in out

    def test_analyze(self, system_file, capsys):
        assert main(["analyze", system_file]) == 0
        out = capsys.readouterr().out
        assert "cycle time" in out

    def test_order_writes_file(self, system_file, tmp_path, capsys):
        out_path = tmp_path / "ord.json"
        assert main(["order", system_file, "-o", str(out_path)]) == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "P2" in out

    def test_check_live(self, system_file, capsys):
        assert main(["check", system_file]) == 0
        assert "deadlock-free" in capsys.readouterr().out

    def test_check_deadlock(self, system_file, tmp_path, capsys):
        system = motivating_example()
        ord_path = tmp_path / "dead.json"
        save_ordering(motivating_deadlock_ordering(system), ord_path)
        assert main(["check", system_file, "--ordering", str(ord_path)]) == 1
        assert "DEADLOCK" in capsys.readouterr().out

    def test_simulate(self, system_file, capsys):
        assert main(["simulate", system_file, "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "measured cycle time" in out
        assert "predicted cycle time" in out

    def test_simulate_deadlock_exit_code(self, system_file, tmp_path):
        ord_path = tmp_path / "dead.json"
        save_ordering(
            motivating_deadlock_ordering(motivating_example()), ord_path
        )
        assert main(
            ["simulate", system_file, "--ordering", str(ord_path)]
        ) == 1

    def test_simulate_batch(self, system_file, capsys):
        assert main(
            ["simulate", system_file, "--batch", "4", "--iterations", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch: 4 lanes" in out
        assert out.count("lane") >= 4
        assert "bit-identical to the scalar engine" in out

    def test_simulate_batch_default_lane_count(self, system_file, capsys):
        assert main(
            ["simulate", system_file, "--batch", "--iterations", "30"]
        ) == 0
        assert "batch: 8 lanes" in capsys.readouterr().out

    def test_simulate_batch_deadlock_exit_code(self, system_file, tmp_path):
        ord_path = tmp_path / "dead.json"
        save_ordering(
            motivating_deadlock_ordering(motivating_example()), ord_path
        )
        assert main(
            ["simulate", system_file, "--ordering", str(ord_path),
             "--batch", "2"]
        ) == 1

    def test_mpeg2_table1(self, capsys):
        assert main(["mpeg2", "--experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "26" in out and "60" in out and "171" in out

    def test_mpeg2_m1(self, capsys):
        assert main(["mpeg2", "--experiment", "m1"]) == 0
        out = capsys.readouterr().out
        assert "1906" in out
        assert "improvement" in out

    def test_scalability_small(self, capsys):
        assert main(["scalability", "--sizes", "20,40"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + two rows

    def test_size_feasible(self, system_file, capsys):
        assert main(["size", system_file, "--target", "10"]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out
        assert "capacity" in out

    def test_size_infeasible_exit_code(self, system_file, capsys):
        assert main(["size", system_file, "--target", "2"]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_dot_system(self, system_file, capsys):
        assert main(["dot", system_file, "--critical"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "color=red" in out

    def test_dot_tmg_to_file(self, system_file, tmp_path, capsys):
        out_path = tmp_path / "g.dot"
        assert main(["dot", system_file, "--tmg", "-o", str(out_path)]) == 0
        content = out_path.read_text()
        assert "proc:P2" in content

    def test_bottlenecks(self, system_file, capsys):
        assert main(["bottlenecks", system_file]) == 0
        out = capsys.readouterr().out
        assert "potential" in out
        assert "P2" in out

    def test_bottlenecks_top(self, system_file, capsys):
        assert main(["bottlenecks", system_file, "--top", "2"]) == 0


class TestIr:
    def test_ir_text(self, system_file, capsys):
        assert main(["ir", system_file]) == 0
        out = capsys.readouterr().out
        assert "structural hash:" in out
        assert "rendezvous" in out

    def test_ir_json_roundtrips(self, system_file, capsys):
        import json

        assert main(["ir", system_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["structural_hash"]) == 64
        assert {p["name"] for p in doc["processes"]} >= {"Psrc", "Psnk"}
        assert all("program" in p for p in doc["processes"])

    def test_ir_hash_matches_library(self, system_file, capsys):
        import json

        from repro.core import load_system
        from repro.ir import lower

        assert main(["ir", system_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["structural_hash"] == (
            lower(load_system(system_file)).structural_hash
        )

    def test_ir_writes_file(self, system_file, tmp_path, capsys):
        out_path = tmp_path / "ir.txt"
        assert main(["ir", system_file, "-o", str(out_path)]) == 0
        assert "structural hash:" in out_path.read_text()

    def test_ir_invalid_ordering_exits_2(self, system_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ir", system_file, "--ordering", str(bad)]) == 2


class TestOutputErrors:
    """Unwritable -o destinations exit 2 with a coded error, no traceback."""

    def test_order_output_failure_exits_2(self, system_file, capsys):
        assert main(
            ["order", system_file, "-o", "/nonexistent/dir/ord.json"]
        ) == 2
        assert "cannot write ordering file" in capsys.readouterr().err

    def test_report_output_failure_exits_2(self, system_file, capsys):
        assert main(
            ["report", system_file, "--no-sensitivity", "--no-stalls",
             "-o", "/nonexistent/dir/report.md"]
        ) == 2
        assert "cannot write report file" in capsys.readouterr().err

    def test_trace_output_failure_exits_2(self, system_file, capsys):
        assert main(
            ["trace", system_file, "--iterations", "5",
             "-o", "/nonexistent/dir/trace.json"]
        ) == 2
        assert "cannot write trace file" in capsys.readouterr().err

    def test_dot_output_failure_exits_2(self, system_file, capsys):
        assert main(
            ["dot", system_file, "-o", "/nonexistent/dir/graph.dot"]
        ) == 2
        assert "cannot write dot file" in capsys.readouterr().err

    def test_report_invalid_system_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1}')
        assert main(["report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "budget", [["--budget-states", "0"], ["--budget-seconds", "-1"]]
    )
    def test_verify_invalid_budget_exits_2(self, system_file, budget, capsys):
        assert main(["verify", system_file, *budget]) == 2
        assert "error: budget_" in capsys.readouterr().err

    def test_trace_invalid_system_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
