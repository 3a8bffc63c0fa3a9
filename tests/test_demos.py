"""The demos run end to end: exit 0, nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
    if demo.stem == "04_riccati_time_dependent":
        assert ("bit-for-bit identical to the time-independent path: True\n"
                in done.stdout)
        # the exact rescaling identity: both residuals zero, verdict OK
        assert ("[PASS] dx/dt residual times 4sD: expected 0, got 0\n"
                "[PASS] dw/dt residual times 4sD: expected 0, got 0\n"
                "=> OK (2 checks)\n") in done.stdout
