"""Every demo script runs to the end in a fresh interpreter, with scipy
blocked as in the rest of the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN_BLOCKED = (
    "import runpy, sys; sys.modules['scipy'] = None; "
    "runpy.run_path(sys.argv[1], run_name='__main__')"
)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_BLOCKED, str(demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
