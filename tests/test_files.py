"""The files drmin writes, against the per-node writers they replaced.

The oracle writers below are the per-node loops that wrote
validation.csv, mesh.csv and verification.csv before every file went
through weierstrass.write_node_table; the array writer must give the
same bytes.
"""

import csv

import numpy as np
import pytest

from drmin.algebra import Kind
from drmin.cli import EXIT_MATH_FAILURE, EXIT_PASS, main
from drmin.expr import WeierstrassData
from drmin.presets import PRESETS
from drmin.spaces import SpaceKind, SpaceModel
from drmin.synthesis import MESH_CSV_COLUMNS, SurfaceMesh, synthesize
from drmin.verify import verify_mesh
from drmin.weierstrass import DomainGrid, validate

S41 = SpaceModel(SpaceKind.FIRST, 1.0)
AXIS_PARA = WeierstrassData.from_strings(["tau/u", "0", "0", "1/u"], Kind.PARA)


def oracle_validation_csv(report, path):
    u_nodes, v_nodes = report.grid.u_nodes, report.grid.v_nodes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["u", "v", "cond_i", "cond_ii_re", "cond_ii_im"]
            + [f"r{k}_{part}" for k in (1, 2, 3, 4) for part in ("re", "im")]
        )
        for i, u in enumerate(u_nodes):
            for j, v in enumerate(v_nodes):
                row = [u, v, report.cond_i[i, j], report.cond_ii_re[i, j], report.cond_ii_im[i, j]]
                for k in range(4):
                    row += [report.residual_re[k, i, j], report.residual_im[k, i, j]]
                writer.writerow([repr(float(x)) for x in row])


def oracle_mesh_csv(mesh, path):
    g = mesh.grid
    with open(path, "w", newline="") as fh:
        fh.write(f"# space: {mesh.space}\n")
        fh.write(f"# c: {mesh.c!r}\n")
        fh.write(f"# algebra: {mesh.kind.value}\n")
        fh.write(f"# grid: {g.u_min!r} {g.u_max!r} {g.v_min!r} {g.v_max!r} {g.nu} {g.nv} {g.u0!r} {g.v0!r}\n")
        for key, val in sorted(mesh.provenance.items()):
            fh.write(f"# {key}: {val}\n")
        writer = csv.writer(fh)
        writer.writerow(MESH_CSV_COLUMNS)
        for i in range(g.nu):
            for j in range(g.nv):
                writer.writerow(
                    [repr(float(g.u_nodes[i])), repr(float(g.v_nodes[j]))]
                    + [repr(float(x)) for x in mesh.nodes[i, j]]
                )


def oracle_verification_csv(report, path):
    g = report.mesh.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "E", "F", "G", "char", "tension_norm"])
        for i in range(g.nu):
            for j in range(g.nv):
                tn = report.tension[i, j]
                tnorm = float(np.linalg.norm(tn)) if np.all(np.isfinite(tn)) else float("nan")
                writer.writerow(
                    [repr(float(g.u_nodes[i])), repr(float(g.v_nodes[j]))]
                    + [repr(float(x)) for x in report.pullbacks[i, j]]
                    + [report.characters[i, j], repr(tnorm)]
                )


def assert_same_bytes(tmp_path, obj, oracle):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    obj.to_csv(new)
    oracle(obj, old)
    assert new.read_bytes() == old.read_bytes()


def preset_files(name):
    p = PRESETS[name]
    w = WeierstrassData.from_strings(list(p.psi_texts), p.algebra)
    grid = p.grid.with_resolution(9, 9)
    mesh = synthesize(p.model(), w, grid, p.f0, force=True)
    return validate(p.model(), w, grid), mesh, verify_mesh(p.model(), mesh, w)


class TestSameBytes:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name, tmp_path):
        report, mesh, check = preset_files(name)
        assert_same_bytes(tmp_path, report, oracle_validation_csv)
        assert_same_bytes(tmp_path, mesh, oracle_mesh_csv)
        assert_same_bytes(tmp_path, check, oracle_verification_csv)

    def test_masked_nodes(self, tmp_path):
        # u = 1.5 is a grid line: the pole of psi4 masks its nodes
        w = WeierstrassData.from_strings(["tau/u", "0", "0", "1/(u-1.5)"], Kind.PARA)
        report = validate(S41, w, DomainGrid(1.0, 2.0, -1.0, 1.0, 9, 9, 1.0, 0.0))
        assert not report.node_ok[4].any() and report.node_ok[3].all()
        assert_same_bytes(tmp_path, report, oracle_validation_csv)

    def test_nan_node(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, DomainGrid(1.0, 2.0, -1.0, 1.0, 9, 9, 1.0, 0.0))
        mesh.nodes[4, 5, 1] = np.nan
        assert_same_bytes(tmp_path, mesh, oracle_mesh_csv)
        assert_same_bytes(tmp_path, verify_mesh(S41, mesh, AXIS_PARA), oracle_verification_csv)
        mesh.to_csv(tmp_path / "mesh.csv")
        back = SurfaceMesh.from_csv(tmp_path / "mesh.csv")
        assert np.array_equal(back.nodes, mesh.nodes, equal_nan=True)


@pytest.fixture
def flow(tmp_path, monkeypatch):
    """The README command flow on a preset, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    name = "s41-timelike-basic"
    for argv in (
        ["validate", "--preset", name, "--grid", "9x9"],
        ["synthesize", "--preset", name, "--grid", "9x9", "--out", "mesh.csv"],
        ["verify", "mesh.csv", "--preset", name, "--grid", "9x9"],
        ["export", "mesh.csv", "--format", "obj", "--projection", "x,y,t", "--out", "surface.obj"],
        ["export", "mesh.csv", "--format", "csv", "--out", "copy.csv"],
    ):
        # verify fails its fixed tolerance at 9x9; the files are written all the same
        assert main(argv) in (EXIT_PASS, EXIT_MATH_FAILURE)
    return tmp_path


class TestFlowFiles:
    def test_no_numpy_scalar_text(self, flow):
        written = {"validation.csv", "mesh.csv", "verification.csv", "surface.obj", "copy.csv"}
        assert written <= {p.name for p in flow.iterdir()}
        for path in flow.iterdir():
            assert "np.float64" not in path.read_text(), path.name

    def test_f0_parses_back(self, flow):
        lines = [l for l in (flow / "mesh.csv").read_text().splitlines() if l.startswith("# f0:")]
        assert len(lines) == 1
        f0 = PRESETS["s41-timelike-basic"].f0
        assert tuple(float(x) for x in lines[0].split(":")[1].split()) == tuple(f0.as_array())

    def test_obj_vertices_and_faces(self, flow):
        mesh = SurfaceMesh.from_csv(flow / "mesh.csv")
        lines = (flow / "surface.obj").read_text().splitlines()
        verts = [l.split() for l in lines if l.startswith("v ")]
        faces = [l.split() for l in lines if l.startswith("f ")]
        assert all(len(v) == 5 for v in verts)
        # projection x,y,t with z in the fourth slot, bit for bit
        got = np.array([[float(x) for x in v[1:]] for v in verts])
        assert np.array_equal(got, mesh.nodes[:, :, [0, 1, 3, 2]].reshape(-1, 4))
        nu, nv = mesh.grid.nu, mesh.grid.nv
        want = [
            [a, a + nv, a + nv + 1, a + 1]
            for a in (i * nv + j + 1 for i in range(nu - 1) for j in range(nv - 1))
        ]
        assert [[int(x) for x in f[1:]] for f in faces] == want
