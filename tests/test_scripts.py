"""Smoke test of the example scripts: each runs to exit 0 at a small size.

Each script runs in a child Python with ``PYTHONPATH=src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["bohr_gap_study.py", "--lengths", "2", "8", "--trials", "1"],
        ["rational_annulus_demo.py", "--degrees", "4", "8"],
        ["universal_demo.py", "--block-steps", "1", "2"],
        ["zeta_chordal_curve.py", "--ladder", "10", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
