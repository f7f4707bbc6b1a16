"""Smoke tests: the scripts under scripts/ run against the library."""

import os
import subprocess
import sys
from pathlib import Path

from drmin.presets import PRESETS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def test_run_presets():
    proc = run_script("run_presets.py", "--grid", "17x17")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert sorted(row.split()[0] for row in rows) == sorted(PRESETS)


def test_convergence_study():
    proc = run_script("convergence_study.py", "--grids", "9,17,33")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["9", "17", "33"]
    # orders of the closed-form error (RK4) and the tension defect
    assert 3.5 <= float(rows[-1][2]) <= 4.5
    assert 1.5 <= float(rows[-1][4]) <= 2.5
