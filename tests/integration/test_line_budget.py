"""Line budgets of the packages whose size ROADMAP.md caps.

``src/repro/sim/`` is the one simulator core (ROADMAP item 4): a faster
path there must replace code, not add beside it, so its total line count
may not grow past the budget.
"""

from pathlib import Path

SIM = Path(__file__).resolve().parents[2] / "src" / "repro" / "sim"
#: Lines of ``src/repro/sim/*.py`` together.
SIM_LINE_BUDGET = 1240


def test_sim_package_stays_within_its_line_budget():
    lines = {
        path.name: len(path.read_text().splitlines())
        for path in sorted(SIM.glob("*.py"))
    }
    assert sum(lines.values()) <= SIM_LINE_BUDGET, lines
