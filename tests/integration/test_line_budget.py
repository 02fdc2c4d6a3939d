"""Line budgets of the packages whose size ROADMAP.md caps.

``src/repro/sim/`` is the one simulator core (ROADMAP item 4): a faster
path there must replace code, not add beside it, so its total line count
may not grow past the budget.  ``src/repro/tmg/`` and
``src/repro/verify/`` carry integer ids up to the boundary and decode
names once; their budgets keep a second decoding from growing back.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
SIM = PACKAGE / "sim"
#: Lines of ``src/repro/sim/*.py`` together.
SIM_LINE_BUDGET = 1240
#: Lines of ``src/repro/tmg/*.py`` together.
TMG_LINE_BUDGET = 1398
#: Lines of ``src/repro/verify/*.py`` together.
VERIFY_LINE_BUDGET = 1076


def _lines(package: Path) -> dict[str, int]:
    return {
        path.name: len(path.read_text().splitlines())
        for path in sorted(package.glob("*.py"))
    }


def test_sim_package_stays_within_its_line_budget():
    lines = _lines(SIM)
    assert sum(lines.values()) <= SIM_LINE_BUDGET, lines


def test_tmg_package_stays_within_its_line_budget():
    lines = _lines(PACKAGE / "tmg")
    assert sum(lines.values()) <= TMG_LINE_BUDGET, lines


def test_verify_package_stays_within_its_line_budget():
    lines = _lines(PACKAGE / "verify")
    assert sum(lines.values()) <= VERIFY_LINE_BUDGET, lines
