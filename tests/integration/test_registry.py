"""The experiment registry stays in sync with the benchmark files."""

from pathlib import Path

import pytest

from repro.bench import format_registry
from repro.bench.registry import EXPERIMENTS, experiment

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


class TestRegistry:
    def test_every_registered_bench_exists(self):
        for entry in EXPERIMENTS:
            assert (BENCH_DIR / entry.bench).is_file(), entry.bench

    def test_every_bench_file_is_registered(self):
        registered = {entry.bench for entry in EXPERIMENTS}
        on_disk = {
            p.name
            for p in BENCH_DIR.glob("test_bench_*.py")
        }
        assert on_disk == registered

    def test_paper_artifacts_covered(self):
        ids = {entry.id for entry in EXPERIMENTS}
        assert {"FIG2", "FIG3", "FIG4", "TAB1", "M1", "FIG6L", "FIG6R",
                "SCAL"} <= ids

    def test_lookup(self):
        assert experiment("fig4").bench == "test_bench_fig4_ordering.py"
        with pytest.raises(KeyError):
            experiment("FIG99")

    def test_format(self):
        text = format_registry()
        assert "FIG6L" in text
        assert "test_bench_scalability.py" in text
