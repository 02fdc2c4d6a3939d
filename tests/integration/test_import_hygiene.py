"""Importing the package pulls in no test-only dependency, and a cold
import loads only the modules it uses.

networkx and scipy back the cycle-enumeration and MILP oracles in
``tests/``; the runtime depends on numpy alone.  Package roots are lazy
export tables (``repro._lazy``), so a bare ``import repro`` runs no
submodule, and the DSE and sign-off entry points leave the leaves no
ledger workload runs unloaded.  Each check runs in a fresh interpreter so
modules imported by other tests cannot mask a leak.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro, repro.cli, repro.dse, repro.sim, repro.verify, repro.perf
leaked = sorted(m for m in ("networkx", "scipy") if m in sys.modules)
print(",".join(leaked))
"""

#: Modules none of the DSE and sign-off entry points runs.
UNUSED_LEAVES = (
    "repro.mpeg2.codec",
    "repro.mpeg2.functional",
    "repro.sdf",
    "repro.ordering.annealing",
    "repro.ordering.exhaustive",
    "repro.sizing",
    "repro.core.dot",
    "repro.dse.memory",
    "repro.dse.report",
    "repro.model.sensitivity",
)


def _run(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


def _loaded_after(imports: str) -> list[str]:
    """The ``repro.*`` modules a fresh interpreter holds after ``imports``."""
    return _run(
        f"import sys\n{imports}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    ).split()


def test_runtime_imports_no_test_only_dependency():
    assert _run(_PROBE).strip() == ""


def test_cold_import_runs_no_submodule():
    assert _loaded_after("import repro") == ["repro", "repro._lazy"]


def test_entry_points_leave_unused_leaves_unloaded():
    loaded = _loaded_after(
        "import repro.dse.explorer, repro.dse.sweep, repro.sim, "
        "repro.verify.checker"
    )
    assert "repro.dse.explorer" in loaded
    assert [m for m in UNUSED_LEAVES if m in loaded] == []
