"""The three benchmark workloads.

Each workload is built from a seed (its ``setup``), then hands out blocks
of operations.  A block covers every built-in preset once, in a seeded
order, so every run sees the same mix and only the order changes.  An
``Op`` pairs the timed call into drmin with an untimed check of its
outputs; the check raises ``CheckFailed`` or returns the accuracy figures
of that op.  drmin is called through module attributes (``synthesis.synthesize``
rather than an imported name) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import re
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from drmin import cli, expr, presets, synthesis, verify, weierstrass
from drmin.expr import EvalError, WeierstrassData
from drmin.presets import PRESETS

from candidates import candidate_blocks


class CheckFailed(Exception):
    """An output of drmin is wrong or missing."""


@dataclass
class Op:
    label: str
    nodes: int  # grid nodes the op carries through drmin
    run: Callable[[], object]
    check: Callable[[object], dict]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _preset_order(seed: int) -> list[str]:
    order = sorted(PRESETS)
    random.Random(seed).shuffle(order)
    return order


# -- pipeline: the README command flow ------------------------------------

PIPELINE_GRID = 21
# RK4 error is O(h^4); the presets give about 2e-3 * h^4 (2e-11 at 101^2)
REF_ERR_PER_H4 = 0.02
# the verdict tolerance drmin verify applies to both defects
VERIFY_TOL = 1e-2
PATH_GAP_RE = re.compile(r"path-independence discrepancy: (\S+)")


class Pipeline:
    """validate, synthesize --out, verify, export through ``drmin.cli.main``."""

    name = "pipeline-21"
    grids = [PIPELINE_GRID]

    def __init__(self, seed: int, workdir: Path | None = None):
        self.workdir = workdir
        n = PIPELINE_GRID
        grid = f"{n}x{n}"
        self.flows = {
            name: [
                ["validate", "--preset", name, "--grid", grid],
                ["synthesize", "--preset", name, "--grid", grid, "--out", "mesh.csv"],
                ["verify", "mesh.csv", "--preset", name],
                ["export", "mesh.csv", "--format", "obj", "--projection", "x,y,t",
                 "--out", "surface.obj"],
            ]
            for name in PRESETS
        }
        self.order = _preset_order(seed)

    def block(self, index: int) -> list[Op]:
        return [self._op(name) for name in self.order]

    def _op(self, name: str) -> Op:
        n = PIPELINE_GRID

        def run():
            tmp = tempfile.mkdtemp(dir=self.workdir)
            here = os.getcwd()
            out = io.StringIO()
            os.chdir(tmp)
            try:
                with redirect_stdout(out):
                    codes = [cli.main(argv) for argv in self.flows[name]]
            finally:
                os.chdir(here)
            return Path(tmp), codes, out.getvalue()

        def check(result):
            tmp, codes, text = result
            try:
                return self._check(name, tmp, codes, text)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

        return Op(name, n * n, run, check)

    def _check(self, name, tmp, codes, text) -> dict:
        n = PIPELINE_GRID
        _require(codes == [0, 0, 0, 0], f"exit codes {codes}")
        mesh = synthesis.SurfaceMesh.from_csv(tmp / "mesh.csv")
        _require(mesh.nodes.shape == (n, n, 4), f"mesh shape {mesh.nodes.shape}")
        ref_err = presets.reference_error(PRESETS[name], mesh)
        bound = REF_ERR_PER_H4 / (n - 1) ** 4
        _require(ref_err <= bound, f"closed-form error {ref_err:.3e} above {bound:.1e}")
        gaps = PATH_GAP_RE.findall(text)
        _require(len(gaps) == 1, "no path-independence line in the synthesize output")
        path_gap = float(gaps[0])
        _require(path_gap <= bound, f"path gap {path_gap:.3e} above {bound:.1e}")
        with open(tmp / "validation.csv", newline="") as fh:
            _require(sum(1 for _ in fh) == n * n + 1, "validation.csv row count")
        tension, conformality = _verification_csv(tmp / "verification.csv", n, PRESETS[name])
        _require(tension <= VERIFY_TOL, f"tension {tension:.3e} above {VERIFY_TOL}")
        _require(conformality <= VERIFY_TOL,
                 f"conformality defect {conformality:.3e} above {VERIFY_TOL}")
        with open(tmp / "surface.obj") as fh:
            kinds = [line[:2] for line in fh]
        _require(kinds.count("v ") == n * n and kinds.count("f ") == (n - 1) ** 2,
                 "surface.obj vertex or face count")
        return {"ref_err": ref_err, "tension_sup": tension, "path_gap": path_gap,
                "conformality_defect": conformality}


def _verification_csv(path, n, preset) -> tuple[float, float]:
    """Interior sup of the tension norm and of the conformality defect."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == n * n, "verification.csv row count")
    tension = conformality = 0.0
    sign = 1.0 if preset.algebra.value == "para" else -1.0  # E + G or E - G
    for index, row in enumerate(rows):
        i, j = divmod(index, n)
        if not (0 < i < n - 1 and 0 < j < n - 1):
            continue
        E, F, G, t = (float(row[k]) for k in ("E", "F", "G", "tension_norm"))
        _require(math.isfinite(t) and math.isfinite(E + F + G), "non-finite verification entry")
        tension = max(tension, t)
        conformality = max(conformality, abs(F), abs(E + sign * G))
    return tension, conformality


# -- screening: validate many candidate quadruples ------------------------

SCREEN_GRID = 17
SCREEN_BLOCKS = 100  # more than a run can use at the default run length
ORACLE_NODES = 3  # seeded sample nodes per candidate, plus one masked node
ORACLE_RTOL = 1e-9


class Screen:
    """``drmin.validate`` on seeded candidates, checked by per-node oracles."""

    name = "screen-17"
    grids = [SCREEN_GRID]

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.blocks = []
        drawn, self.redrawn = candidate_blocks(seed, SCREEN_BLOCKS, SCREEN_GRID)
        for block in drawn:
            parsed = []
            for name, texts, perturbed in block:
                preset = PRESETS[name]
                parsed.append((name, preset.model(), WeierstrassData.from_strings(texts, preset.algebra),
                               preset.grid.with_resolution(SCREEN_GRID, SCREEN_GRID), perturbed))
            self.blocks.append(parsed)

    def block(self, index: int) -> list[Op]:
        block = self.blocks[index % len(self.blocks)]
        return [self._op(index, slot, *c) for slot, c in enumerate(block)]

    def _op(self, index, slot, name, model, w, grid, perturbed) -> Op:
        rng = random.Random(f"{self.seed}/{index}/{slot}")

        def run():
            return weierstrass.validate(model, w, grid)

        def check(report):
            if not perturbed:
                _require(report.passed, f"unperturbed {name} did not pass")
            _require(report.node_ok.shape == (grid.nu, grid.nv), "node_ok shape")
            nodes = [(rng.randrange(grid.nu), rng.randrange(grid.nv)) for _ in range(ORACLE_NODES)]
            masked = np.argwhere(~report.node_ok)
            if len(masked):
                nodes.append(tuple(int(x) for x in masked[rng.randrange(len(masked))]))
            for i, j in nodes:
                _oracle_node(model, w, grid, report, i, j)
            return {"masked": int(masked.shape[0]), "passed": bool(report.passed)}

        label = f"{name}{'+' if perturbed else ''}"
        return Op(label, grid.nu * grid.nv, run, check)

    def record(self) -> dict:
        return {"formulas_redrawn": self.redrawn, "overflow_probe": overflow_probe()}


# the ROADMAP item 4 reproduction, added to one component of a preset
OVERFLOW_TEXT = "exp(1000*u)"


def overflow_probe() -> dict:
    """Whether ``validate`` still lets an ``OverflowError`` escape.

    The screening candidates are drawn so that they cannot reach this
    defect; this untimed probe shows it in every screening run instead.
    """
    preset = PRESETS["s41-timelike-basic"]
    texts = (f"({preset.psi_texts[0]}) + {OVERFLOW_TEXT}",) + tuple(preset.psi_texts[1:])
    w = WeierstrassData.from_strings(texts, preset.algebra)
    grid = preset.grid.with_resolution(SCREEN_GRID, SCREEN_GRID)
    try:
        report = weierstrass.validate(preset.model(), w, grid)
    except Exception as exc:  # the defect: a traceback instead of masked nodes
        return {"defect_shows": True, "raised": repr(exc)}
    return {"defect_shows": False, "nodes_masked": int((~report.node_ok).sum())}


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ORACLE_RTOL * scale


def _oracle_node(model, w, grid, report, i, j) -> None:
    """Compare one node of the report with drmin's per-node routes."""
    u, v = float(grid.u_nodes[i]), float(grid.v_nodes[j])
    try:
        psi = [expr.evaluate(p, u, v, w.kind) for p in w.psi]
        bars = [expr.evaluate(expr.wirtinger_bar(p), u, v, w.kind) for p in w.psi]
    except EvalError:
        _require(not report.node_ok[i, j], f"node ({u}, {v}) raises but is not masked")
        return
    _require(bool(report.node_ok[i, j]), f"node ({u}, {v}) evaluates but is masked")
    scale = 1.0 + sum(abs(s.re) + abs(s.im) for s in psi + bars) ** 2
    ci = weierstrass.condition_i(model, w, u, v)
    cii = weierstrass.condition_ii(model, w, u, v)
    res = weierstrass.harmonicity_residual_explicit(model, w, u, v)
    pairs = [(ci, report.cond_i[i, j]), (cii.re, report.cond_ii_re[i, j]),
             (cii.im, report.cond_ii_im[i, j])]
    for k in range(4):
        pairs += [(res[k].re, report.residual_re[k, i, j]), (res[k].im, report.residual_im[k, i, j])]
    for want, got in pairs:
        _require(_close(float(want), float(got), scale),
                 f"node ({u}, {v}): report {got!r} against oracle {want!r}")


# -- refinement ladder: march and verify only -----------------------------

LADDER = [9, 17, 33]
ERR_ORDER = (3.5, 4.5)  # RK4
TENSION_ORDER = (1.5, 2.5)  # central differences


class RefineLadder:
    """``synthesize(force=True)`` then ``verify_mesh`` without psi, per grid."""

    name = "refine-ladder"
    grids = LADDER

    def __init__(self, seed: int, workdir: Path | None = None):
        self.order = _preset_order(seed)
        self.data = {name: WeierstrassData.from_strings(PRESETS[name].psi_texts, PRESETS[name].algebra)
                     for name in PRESETS}

    def block(self, index: int) -> list[Op]:
        return [self._op(name) for name in self.order]

    def _op(self, name: str) -> Op:
        preset = PRESETS[name]
        model, w = preset.model(), self.data[name]

        def run():
            out = []
            for n in LADDER:
                mesh = synthesis.synthesize(model, w, preset.grid.with_resolution(n, n), preset.f0,
                                            force=True)
                out.append((mesh, verify.verify_mesh(model, mesh).tension_sup))
            return out

        def check(result):
            errs = [presets.reference_error(preset, mesh) for mesh, _ in result]
            tensions = [t for _, t in result]
            for k in range(1, len(LADDER)):
                ratio = (LADDER[k] - 1) / (LADDER[k - 1] - 1)
                err_order = math.log(errs[k - 1] / errs[k], ratio)
                ten_order = math.log(tensions[k - 1] / tensions[k], ratio)
                _require(ERR_ORDER[0] <= err_order <= ERR_ORDER[1],
                         f"closed-form error order {err_order:.2f} at {LADDER[k]}")
                _require(TENSION_ORDER[0] <= ten_order <= TENSION_ORDER[1],
                         f"tension order {ten_order:.2f} at {LADDER[k]}")
            return {"ref_err": max(errs), "tension_sup": max(tensions)}

        return Op(name, sum(n * n for n in LADDER), run, check)


WORKLOADS = {w.name: w for w in (Pipeline, Screen, RefineLadder)}
