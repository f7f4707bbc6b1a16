#!/usr/bin/env python3
"""drmin benchmark: closed loop, one client, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-21 --seed 1 --seconds 35 --trace 0

Ops run in blocks (one op per built-in preset) until the next block would
overrun ``--seconds``.  Every op's outputs are checked outside the timed
region; an exception or a failed check counts the op as failed and the
run goes on.  Times are scaled to a reference host speed (hostspeed.py).
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics.  A traced run plays every
block twice, once traced and once not (alternating which goes first); the
layer metrics come from the traced plays, and the difference between the
medians of the two is the tracing overhead.  A run record with the environment, every sample
and the layer shares is written under perfbench/out/.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, here and in the set-up probes
BLAS_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REF_KERNEL_S, kernel_seconds  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
MAX_ERRORS_KEPT = 5

TRACE_TIMES = [
    ("weierstrass.validate_s", "weierstrass.validate", "total"),
    ("expr.parse_s", "expr.parse", "total"),
    ("synthesis.synthesize_s", "synthesis.synthesize", "total"),
    ("synthesis.path_independence_s", "synthesis.path_independence", "total"),
    ("verify.verify_mesh_s", "verify.verify_mesh", "total"),
    ("verify.pullback_s", "verify.pullback", "total"),
    ("verify.tension_residual_s", "verify.tension_residual", "total"),
    ("verify.self_s", "verify.verify_mesh", "self"),
    ("synthesis.mesh_write_s", "synthesis.mesh_write", "total"),
    ("synthesis.mesh_read_s", "synthesis.mesh_read", "total"),
    ("weierstrass.report_csv_s", "weierstrass.report_csv", "total"),
    ("verify.report_csv_s", "verify.report_csv", "total"),
    ("presets.reference_error_s", "presets.reference_error", "total"),
    ("cli.validate_s", "cli.validate", "total"),
    ("cli.synthesize_s", "cli.synthesize", "total"),
    ("cli.verify_s", "cli.verify", "total"),
    ("cli.export_s", "cli.export", "total"),
]
CLI_COMMANDS = ("cli.validate", "cli.synthesize", "cli.verify", "cli.export")
TRACE_COUNTS = [
    "weierstrass.nodes", "weierstrass.nodes_masked", "expr.evaluate_calls",
    "synthesis.rk4_steps", "spaces.frame_matrix_calls", "synthesis.mesh_bytes",
    "spaces.metric_at_calls", "spaces.christoffel_at_calls",
]
# which span a count comes from, when it is filled by a span's hook
COUNT_SOURCE = {
    "weierstrass.nodes": "weierstrass.validate",
    "weierstrass.nodes_masked": "weierstrass.validate",
    "synthesis.rk4_steps": "synthesis.synthesize",
    "synthesis.mesh_bytes": "synthesis.mesh_write",
}
# layer shares of traced op time, from the per-op layer times above; the
# first three are also reported as per-layer metrics
SHARES = {
    "validate": ["weierstrass.validate_s"],
    "march": ["synthesis.synthesize_s", "synthesis.path_independence_s"],
    "verify": ["verify.verify_mesh_s"],
    "reference_error": ["presets.reference_error_s"],
    "csv_io": ["synthesis.mesh_write_s", "synthesis.mesh_read_s", "weierstrass.report_csv_s",
               "verify.report_csv_s"],
    "parse": ["expr.parse_s"],
    "cli_self": ["cli.self_s"],
}
SHARE_METRICS = ("validate", "march", "verify")


def percentile(sorted_values, q):
    """Linear-interpolated q-th percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no such percentile lies above the median,
    and the median is reported.
    """
    values = sorted(values)
    q = max(50.0, 100.0 * (len(values) - 10) / len(values))
    return percentile(values, q), q


def setup_seconds(workload, seed):
    """Median over fresh interpreters of import plus input parsing."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_ops(workload, seconds, tracer):
    """Closed loop over blocks until the next block would pass the deadline."""
    samples, errors = [], []
    block_seconds = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    plays = 2 if tracer else 1  # plays of each block
    while True:
        # a traced run plays each block twice, once traced; which play goes
        # first alternates, since the first play fills drmin's derivative caches
        pair, second = divmod(index, 2)
        traced = tracer is not None and second != pair % 2
        if traced:
            tracer.install()
        block_start = time.perf_counter()
        for op in workload.block(pair if tracer else index):
            sample = {"op": op.label, "block": index, "traced": traced, "nodes": op.nodes,
                      "kernel_s": kernel_seconds()}
            if traced:
                tracer.op = len(samples)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result, crash = op.run(), None
            except Exception as exc:  # a crash in drmin is a failed op, not a failed run
                result, crash = None, exc
            sample["wall_s"] = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            if crash is not None:
                sample["ok"] = False
                errors.append(f"{op.label}: {''.join(traceback.format_exception(crash))}")
            else:
                try:
                    sample["check"] = op.check(result)
                    sample["ok"] = True
                except Exception:  # CheckFailed, or a check that could not run
                    sample["ok"] = False
                    sample["check_failed"] = True
                    errors.append(f"{op.label}: {traceback.format_exc()}")
            samples.append(sample)
        if traced:
            tracer.uninstall()
        block = [s for s in samples if s["block"] == index]
        kernel = statistics.median(s["kernel_s"] for s in block)
        for s in block:
            s["seconds"] = s["wall_s"] * REF_KERNEL_S / kernel
        block_seconds.append(time.perf_counter() - block_start)
        index += 1
        if index % plays == 0 and time.perf_counter() + plays * statistics.median(block_seconds) > deadline:
            break
    return samples, errors, time.perf_counter() - start


def end_to_end(samples, setup_s):
    done = [s for s in samples if s["ok"]]
    times = [s["seconds"] for s in done]
    if not times:
        return {}, {}
    tail_s, tail_q = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "nodes_per_s": (sum(s["nodes"] for s in done) / sum(s["seconds"] for s in samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": tail_q, "samples": len(times)}


def per_layer(samples, tracer):
    traced = [s for s in samples if s["traced"]]
    plain = [s["seconds"] for s in samples if not s["traced"] and s["ok"]]
    ops = len(traced)
    op_seconds = sum(s["seconds"] for s in traced)
    scale = [s["seconds"] / s["wall_s"] for s in samples]
    present = tracer.present
    metrics = {}
    for metric, span, how in TRACE_TIMES:
        if span in present:
            value = tracer.total(span, scale) if how == "total" else tracer.self_time(span, scale)
            metrics[metric] = (value / ops, "s")
    if all(name in present for name in CLI_COMMANDS):
        cli_self = sum(tracer.self_time(name, scale) for name in CLI_COMMANDS)
        metrics["cli.self_s"] = (cli_self / ops, "s")
    for name in TRACE_COUNTS:
        source = COUNT_SOURCE.get(name, name)
        if source in present and source not in tracer.failed_hooks:
            unit = "B" if name.endswith("_bytes") else "count"
            metrics[name] = (tracer.counts.get(name, 0) / ops, unit)
    if "weierstrass.nodes" in metrics:
        nodes = tracer.counts.get("weierstrass.nodes", 0)
        ns = 1e9 * tracer.total("weierstrass.validate", scale) / nodes if nodes else 0.0
        metrics["weierstrass.ns_per_node"] = (ns, "ns")
    shares = {}
    for group, names in SHARES.items():
        if all(name in metrics for name in names):
            shares[group] = sum(metrics[name][0] for name in names) * ops / op_seconds
    for group in SHARE_METRICS:
        if group in shares:
            metrics[f"share.{group}_pct"] = (100.0 * shares[group], "%")
    shares["unattributed"] = 1.0 - sum(shares.values())
    traced_ok = [s["seconds"] for s in traced if s["ok"]]
    if traced_ok and plain:
        metrics["trace.overhead_s"] = (statistics.median(traced_ok) - statistics.median(plain), "s")
    return metrics, shares


def accuracy(samples):
    worst = {}
    for s in samples:
        for key, value in s.get("check", {}).items():
            if isinstance(value, float):
                worst[key + "_max"] = max(worst.get(key + "_max", 0.0), value)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "drmin" / "__init__.py").is_file():
        print(f"drmin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import drmin
    from workloads import WORKLOADS

    if Path(drmin.__file__).resolve().parent != ROOT / "src" / "drmin":
        print(f"drmin imported from {drmin.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, setup_samples = setup_seconds(args.workload, args.seed) if not args.trace else (None, [])
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="work-"))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        from tracing import COMPUTED_COUNTS, Tracer

        tracer = Tracer()
    try:
        samples, errors, wall = run_ops(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # untimed, after the loop: what the workload reports beyond its ops
    notes = workload.record() if hasattr(workload, "record") else {}

    failed = sum(not s["ok"] for s in samples)
    if args.trace:
        metrics, shares = per_layer(samples, tracer)
        extra = {"layer_shares": shares}
    else:
        metrics, extra = end_to_end(samples, setup_s)
    acc = accuracy(samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "grids": workload.grids,
        "loop": "closed, one client, one process, one thread",
        "wall_s": wall,
        "setup_samples_s": setup_samples,
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "accuracy": acc,
        **notes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **extra,
        "errors": errors[:MAX_ERRORS_KEPT],
        "samples": samples,
    }
    if tracer:
        record["computed_counts"] = COMPUTED_COUNTS
        record["missing_wrappers"] = tracer.missing
        record["failed_hooks"] = sorted(tracer.failed_hooks)
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))

    print(f"{args.workload} seed {args.seed}: {len(samples)} ops, {failed} failed, "
          f"accuracy {json.dumps(acc)}; {json.dumps(notes)}; "
          f"record in {OUT_DIR.relative_to(ROOT) / name}")
    for line in errors[:MAX_ERRORS_KEPT]:
        print(line.rstrip().splitlines()[-1])
    print(json.dumps({
        "correct": bool(metrics) and not any(s.get("check_failed") for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
