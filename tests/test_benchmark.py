"""The benchmark under perfbench/ runs against the library.

One block of each workload runs with its output checks, and short runs of
perfbench/run.py carry every metric BENCHMARK.json names.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drmin.presets import PRESETS

ROOT = Path(__file__).resolve().parents[1]


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
