"""The demo scripts still run against the package.

A script imports its names from `wmtrop` directly, so a deleted or renamed
name would otherwise go unnoticed until someone runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["tate_curve_demo.py"],
        ["filtration_sweep.py", "20", "4", "1"],
        # every seed-0 benchmark job, its render_json checked against json.dumps
        ["report_digest.py", "--seeds", "0"],
    ],
    ids=lambda a: a[0],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
