"""Importing the package pulls in no test-only dependency.

networkx and scipy back the cycle-enumeration and MILP oracles in
``tests/``; the runtime depends on numpy alone.  The check runs in a
fresh interpreter so modules imported by other tests cannot mask a leak.
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


def test_runtime_imports_no_test_only_dependency():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == ""
