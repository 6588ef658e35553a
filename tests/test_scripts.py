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


#: what scripts/report_digest.py prints at seed 0: a change that alters any
#: report byte of a seed-0 benchmark job must say so and pin the new lines
SEED0_DIGEST = (
    "151 jobs, sha256 c9f509c6b2f85e3fd59053fb26004ab69b1e7ea7aa1f5d344a30cdb514b7b68f\n"
    "text format, sha256 4ca0dfb8f92d66afbbbe077c79ef84ed2e7d78a32bc3cb5eeeb98253152c3c03\n"
)


@pytest.mark.parametrize(
    "argv, stdout",
    [
        pytest.param(["tate_curve_demo.py"], None, id="tate_curve_demo.py"),
        pytest.param(["filtration_sweep.py", "20", "4", "1"], None, id="filtration_sweep.py"),
        # every seed-0 benchmark job, its render_json checked against json.dumps
        pytest.param(["report_digest.py", "--seeds", "0"], SEED0_DIGEST, id="report_digest.py"),
    ],
)
def test_script_runs(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    if stdout is not None:
        assert done.stdout == stdout
