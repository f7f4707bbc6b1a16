"""Smoke tests: the scripts under scripts/ run against the library."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_run_presets_lists_failed_checks():
    # verify's fixed 1e-2 bound is below the finite-difference defect at h = 0.1
    proc = run_script("run_presets.py", "--grid", "11x11")
    assert proc.returncode == 1
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert sorted(row.split()[0] for row in lines[2:2 + len(PRESETS)]) == sorted(PRESETS)
    assert "s41-timelike-basic: conformality defect 1.833e-02 exceeds 1.0e-02" in lines
    assert all(line.split(":")[0] in PRESETS for line in lines[2 + len(PRESETS):])


def test_convergence_study():
    proc = run_script("convergence_study.py", "--grids", "9,17,33")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["9", "17", "33"]
    # orders of the closed-form error (RK4) and the tension defect
    assert 3.5 <= float(rows[-1][2]) <= 4.5
    assert 1.5 <= float(rows[-1][4]) <= 2.5


@pytest.mark.parametrize("name, option, text", [
    ("run_presets.py", "--grid", "9"),
    ("run_presets.py", "--grid", "2x9"),
    ("convergence_study.py", "--grids", "9,9"),  # a log in base 1
    ("convergence_study.py", "--grids", "17,9x"),
])
def test_bad_resolution_is_a_usage_error(name, option, text):
    proc = run_script(name, option, text)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and "Traceback" not in proc.stderr
    assert f"argument {option}: expected " in proc.stderr and repr(text) in proc.stderr


@pytest.mark.parametrize("workload", ["pipeline-21", "screen-17", "refine-ladder"])
def test_benchmark_block_passes_its_checks(workload, tmp_path, monkeypatch):
    # the benchmark's workloads, imported unchanged: every op of block 0
    # must run and pass its output check against the current API
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[workload](seed=1, workdir=tmp_path).block(0)
    assert len(ops) == len(PRESETS)
    for op in ops:
        op.check(op.run())


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace):
    """Metrics of a short benchmark run; its record goes to the git-ignored perfbench/out/."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload, frame_calls, steps, christoffel_calls", [
    ("pipeline-21", 6, 440, 2), ("refine-ladder", 15, 1456, 6),
])
def test_traced_benchmark_reports_every_layer_metric(workload, frame_calls, steps,
                                                     christoffel_calls):
    # a counter or span whose target drmin no longer has drops its metric; one
    # that drmin stops calling reads 0.  A march takes every step of the base
    # line and of the lines crossing it level by level (t, x and y, z) and
    # calls frame_matrix once for its t level and, for each other level, once
    # per synthesis.FRAME_POINTS (2048) stage points, or once per stage where
    # one stage holds more.  An n^2 march has (n - 1) + (n - 1)*n steps of
    # four stages: up to 21^2 (1760 points) it makes 1 + 1 + 1 = 3 calls; at
    # 33^2 one stage holds 1088 points, so 1 + 4 + 4 = 9.  So an op makes 6
    # (two marches at 21^2) or 15 (one each at 9^2, 17^2 and 33^2).  The
    # tension makes one Christoffel call per block of at most 256 interior
    # nodes (2 blocks at 21^2; 1, 1 and 4 at 9^2, 17^2 and 33^2).
    metrics = run_benchmark(workload, trace=1)
    assert [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in metrics] == []
    assert metrics["spaces.frame_matrix_calls"]["value"] == frame_calls
    assert metrics["synthesis.rk4_steps"]["value"] == steps
    assert metrics["spaces.christoffel_at_calls"]["value"] == christoffel_calls
    if workload == "pipeline-21":  # the workload that runs the CLI: its spans must see it
        cli = ["cli.validate_s", "cli.synthesize_s", "cli.verify_s", "cli.export_s", "cli.self_s"]
        assert [name for name in cli if not metrics[name]["value"] > 0] == []


def test_benchmark_reports_every_end_to_end_metric():
    metrics = run_benchmark("refine-ladder", trace=0)
    assert [m["name"] for m in BENCHMARK["end_to_end"] if m["name"] not in metrics] == []
