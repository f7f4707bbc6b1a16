"""The files drmin writes, against the per-node writers they replaced.

The oracle writers below are the per-node loops that wrote
validation.csv, mesh.csv and verification.csv before every file went
through mesh.write_node_table, and the per-row loop of the OBJ export;
the array writers must give the same bytes.
"""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from drmin.algebra import Kind
from drmin.cli import EXIT_INPUT_ERROR, EXIT_MATH_FAILURE, EXIT_PASS, main
from drmin.expr import WeierstrassData
from drmin.mesh import MESH_CSV_COLUMNS, DomainGrid, SurfaceMesh, float_text
from drmin.presets import PRESETS
from drmin.spaces import SpaceKind, SpaceModel
from drmin.synthesis import synthesize
from drmin.verify import verify_mesh
from drmin.weierstrass import validate

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


def oracle_obj(mesh, axes, path):
    """The OBJ writer's per-row loop, one repr per value."""
    g = mesh.grid
    idx = ["xyzt".index(a) for a in axes]
    scalar_idx = ({0, 1, 2, 3} - set(idx)).pop()
    with open(path, "w") as fh:
        fh.write(f"# projection {','.join(axes)}; vertex w holds coordinate "
                 f"{'xyzt'[scalar_idx]}\n")
        for row in mesh.nodes:
            texts = [repr(float(x)) for x in row[:, idx + [scalar_idx]].ravel()]
            fh.write(("v {} {} {} {}\n" * g.nv).format(*texts))
        for i in range(g.nu - 1):
            a = np.arange(i * g.nv + 1, (i + 1) * g.nv)  # 1-based first corners of row i's quads
            corners = np.stack([a, a + g.nv, a + g.nv + 1, a + 1], axis=-1)
            fh.write(("f {} {} {} {}\n" * (g.nv - 1)).format(*corners.ravel().tolist()))


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


# floats a dedupe by value would get wrong: signed zeros, NaNs of both signs and
# another payload, infinities, the smallest subnormal, and the reprs next to the
# switches between positional and exponent text
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
EDGE_VALUES = np.array([0.0, -0.0, np.nan, -np.nan, NAN_PAYLOAD, np.inf, -np.inf, 5e-324,
                        1e16, 9999999999999998.0, 1e-05, 0.0001])
EDGE_GRID = DomainGrid(1.0, 2.0, -1.0, 1.0, 5, 7, 1.0, 0.0)


def edge_field(shift, shape=(5, 7)):
    """EDGE_VALUES over the grid, repeating along each grid row, shifted per column."""
    return np.roll(np.resize(EDGE_VALUES, np.prod(shape)), shift).reshape(shape)


class TestDistinctValues:
    """Each distinct bit pattern is formatted once, and no two share a text they differ in."""

    def test_float_text_is_repr(self):
        assert np.signbit(EDGE_VALUES[[1, 3]]).all()
        assert not np.signbit(EDGE_VALUES[[0, 2, 4]]).any()
        values = edge_field(3)
        texts = float_text(values)
        assert texts == [repr(float(x)) for x in values.ravel()]
        assert texts.count("-0.0") == 3 and texts.count("0.0") == 3 and texts.count("nan") == 9
        # a view that is not contiguous, a scalar, an empty input
        assert float_text(values.T) == [repr(float(x)) for x in values.T.ravel()]
        assert float_text(-0.0) == ["-0.0"] and float_text(np.float64(1e16)) == ["1e+16"]
        assert float_text([]) == []

    def test_mesh(self, tmp_path):
        nodes = np.stack([edge_field(k) for k in range(4)], axis=-1)
        mesh = SurfaceMesh(EDGE_GRID, nodes, Kind.PARA, "S41", -0.0, {"f0": "0.0 -0.0 0.0 1.0"})
        assert_same_bytes(tmp_path, mesh, oracle_mesh_csv)
        mesh.to_csv(tmp_path / "mesh.csv")
        back = SurfaceMesh.from_csv(tmp_path / "mesh.csv")
        assert np.array_equal(back.nodes, nodes, equal_nan=True)
        assert (np.signbit(back.nodes) == np.signbit(nodes))[~np.isnan(nodes)].all()
        assert str(back.c) == "-0.0"

    def test_validation_report(self, tmp_path):
        report = dataclasses.replace(
            validate(S41, AXIS_PARA, EDGE_GRID),
            cond_i=edge_field(0), cond_ii_re=edge_field(5), cond_ii_im=edge_field(7),
            residual_re=np.stack([edge_field(k) for k in range(4)]),
            residual_im=np.stack([edge_field(-k) for k in range(4)]),
        )
        assert_same_bytes(tmp_path, report, oracle_validation_csv)

    def test_verification_report(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, EDGE_GRID)
        pullbacks = np.stack([edge_field(k) for k in (0, 1, 12)], axis=-1)
        report = dataclasses.replace(verify_mesh(S41, mesh, AXIS_PARA), pullbacks=pullbacks)
        assert_same_bytes(tmp_path, report, oracle_verification_csv)


class TestObjWriter:
    @pytest.mark.parametrize("shape", [(5, 13), (13, 5)], ids=["5x13", "13x5"])
    @pytest.mark.parametrize("axes", ["x,y,t", "t,z,x"])
    def test_same_bytes(self, tmp_path, capsys, shape, axes):
        # on a grid that is not square a transposed face index shows
        mesh = synthesize(S41, AXIS_PARA, DomainGrid(1.0, 2.0, -1.0, 1.0, *shape, 1.0, 0.0))
        mesh.nodes[1, 2, 0], mesh.nodes[2, 1, 0] = -0.0, 0.0
        mesh.to_csv(tmp_path / "mesh.csv")
        argv = ["export", str(tmp_path / "mesh.csv"), "--projection", axes,
                "--out", str(tmp_path / "new.obj")]
        assert main(argv) == EXIT_PASS
        assert capsys.readouterr().out == (
            f"obj written to {tmp_path / 'new.obj'} ({shape[0] * shape[1]} vertices, "
            f"{(shape[0] - 1) * (shape[1] - 1)} quads)\n"
        )
        oracle_obj(mesh, axes.split(","), tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_report_writers_stay_small(tmp_path, name):
    # the text is joined one grid row at a time: a writer that joins the
    # whole file in one string peaks at 6.0-7.6 MB here
    p = PRESETS[name]
    w = WeierstrassData.from_strings(list(p.psi_texts), p.algebra)
    grid = p.grid.with_resolution(129, 129)
    report = validate(p.model(), w, grid)
    check = verify_mesh(p.model(), synthesize(p.model(), w, grid, p.f0, force=True), w)
    for obj in (report, check):
        tracemalloc.start()
        try:
            obj.to_csv(tmp_path / "out.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, f"{type(obj).__name__}.to_csv peaked at {peak} bytes"


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


class TestMeshNodeColumns:
    """from_csv reads u and v back against the grid node of each row's position."""

    def write(self, tmp_path, edit_uv):
        grid = DomainGrid(1.0, 2.0, -1.0, 1.0, 7, 4, 1.0, 0.0)  # spacings 1/6 and 2/3
        mesh = synthesize(S41, AXIS_PARA, grid, PRESETS["s41-timelike-basic"].f0)
        mesh.to_csv(tmp_path / "mesh.csv")
        lines = (tmp_path / "mesh.csv").read_text().splitlines()
        start = lines.index(",".join(MESH_CSV_COLUMNS)) + 1
        for k in range(start, len(lines)):
            u, v, rest = lines[k].split(",", 2)
            lines[k] = ",".join([*edit_uv(float(u), float(v)), rest])
        (tmp_path / "edited.csv").write_text("\n".join(lines) + "\n")
        return mesh

    def test_hand_typed_decimals_load(self, tmp_path):
        mesh = self.write(tmp_path, lambda u, v: (f"{u:.4f}", f"{v:.4f}"))
        assert "1.1667,-0.3333" in (tmp_path / "edited.csv").read_text()
        back = SurfaceMesh.from_csv(tmp_path / "edited.csv")
        assert back.nodes.tobytes() == mesh.nodes.tobytes()

    @pytest.mark.parametrize("edit_uv, named", [
        (lambda u, v: ("7.0", "7.0"),
         "mesh row 1 has (u, v) = (7.0, 7.0) where the grid node is (1.0, -1.0)"),
        (lambda u, v: (repr(u), repr(v + 0.01)), "mesh row 1 has (u, v) = (1.0, -0.99)"),
        (lambda u, v: (repr(u), "nan"), "mesh row 1 has (u, v) = (1.0, nan)"),
    ], ids=["all-seven", "off-by-1.5-percent-of-a-step", "nan"])
    def test_other_nodes_refused(self, tmp_path, edit_uv, named):
        self.write(tmp_path, edit_uv)
        with pytest.raises(ValueError) as info:
            SurfaceMesh.from_csv(tmp_path / "edited.csv")
        assert named in str(info.value)


@pytest.mark.parametrize("text", ["", "\n\n", "# space: S41\n# c: 1.0\n"],
                         ids=["empty", "blank", "comments-only"])
def test_mesh_without_header_refused(tmp_path, text):
    (tmp_path / "mesh.csv").write_text(text)
    with pytest.raises(ValueError, match=r"^unexpected mesh columns \[''\]$"):
        SurfaceMesh.from_csv(tmp_path / "mesh.csv")


class TestMeshNodeMargin:
    """from_csv's margin is 1e-3 of the spacing on each axis, its edge included."""

    GRID = DomainGrid(0.0, 1.0, 0.0, 1.0, 5, 3, 0.0, 0.0)  # spacings 0.25 and 0.5
    MARGIN = {"u": 1e-3 * 0.25, "v": 1e-3 * 0.5}

    def load(self, tmp_path, row, axis, value):
        """Write a mesh on GRID, set the axis column of one data row to value and read it."""
        mesh = SurfaceMesh(self.GRID, np.zeros((5, 3, 4)), Kind.PARA, "S41", 1.0)
        mesh.to_csv(tmp_path / "mesh.csv")
        lines = (tmp_path / "mesh.csv").read_text().splitlines()
        k = lines.index(",".join(MESH_CSV_COLUMNS)) + row
        cells = lines[k].split(",")
        cells["uv".index(axis)] = repr(value)
        lines[k] = ",".join(cells)
        (tmp_path / "edited.csv").write_text("\n".join(lines) + "\n")
        return SurfaceMesh.from_csv(tmp_path / "edited.csv")

    @pytest.mark.parametrize("axis", ["u", "v"])
    @pytest.mark.parametrize("toward", [0.0, None], ids=["inside", "at-edge"])
    def test_within_margin_loads(self, tmp_path, axis, toward):
        # row 1 is the node (0, 0), so the offset is the cell's value, exactly
        margin = self.MARGIN[axis]
        value = margin if toward is None else np.nextafter(margin, toward)
        assert self.load(tmp_path, 1, axis, float(value)).grid == self.GRID

    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_just_outside_refused(self, tmp_path, axis):
        value = float(np.nextafter(self.MARGIN[axis], 1.0))
        uv = (repr(value), "0.0") if axis == "u" else ("0.0", repr(value))
        with pytest.raises(ValueError) as info:
            self.load(tmp_path, 1, axis, value)
        assert str(info.value) == (
            f"mesh row 1 has (u, v) = ({', '.join(uv)}) where the grid node is (0.0, 0.0)"
        )

    def test_row_number_past_the_first_grid_row(self, tmp_path):
        # data row 8 is the node (i, j) = (2, 1): u = 0.5, v = 0.5
        with pytest.raises(ValueError) as info:
            self.load(tmp_path, 8, "v", 0.6)
        assert str(info.value) == (
            "mesh row 8 has (u, v) = (0.5, 0.6) where the grid node is (0.5, 0.5)"
        )


class TestMeshFileFaults:
    """from_csv refuses repeated metadata and names the file line of a malformed row."""

    GRID = DomainGrid(0.0, 1.0, 0.0, 1.0, 5, 3, 0.0, 0.0)

    def lines(self, tmp_path, provenance=None):
        mesh = SurfaceMesh(self.GRID, np.zeros((5, 3, 4)), Kind.PARA, "S41", 1.0,
                           provenance or {})
        mesh.to_csv(tmp_path / "mesh.csv")
        return (tmp_path / "mesh.csv").read_text().split("\n")

    def load(self, tmp_path, lines):
        (tmp_path / "edited.csv").write_text("\n".join(lines))
        return SurfaceMesh.from_csv(tmp_path / "edited.csv")

    @pytest.mark.parametrize("edit, key", [
        (lambda lines: [*lines[:2], "# c: 3.0", *lines[2:]], "c"),
        (lambda lines: [*lines, "# c: 2.0"], "c"),
        (lambda lines: [*lines, "# grid: 1.0 2.0 -1.0 1.0 3 3 1.0 0.0"], "grid"),
    ], ids=["before-the-header", "after-the-rows", "grid-after-the-rows"])
    def test_repeated_key_refused(self, tmp_path, edit, key):
        with pytest.raises(ValueError, match=rf"^mesh file repeats metadata key '{key}'$"):
            self.load(tmp_path, edit(self.lines(tmp_path)))
        assert main(["export", str(tmp_path / "edited.csv")]) == EXIT_INPUT_ERROR

    def test_to_csv_writes_each_key_once(self, tmp_path):
        provenance = {"psi1": "tau/u", "f0": "0.0 2.0 0.0 0.0", "drmin": "0.1.0"}
        lines = self.lines(tmp_path, provenance)
        keys = [line[1:].partition(":")[0].strip() for line in lines if line.startswith("#")]
        assert sorted(keys) == sorted(["space", "c", "algebra", "grid", *provenance])
        assert self.load(tmp_path, lines).provenance == provenance

    @pytest.mark.parametrize("row, named", [
        ("1.0,2.0", "needs 6 fields, got 2"),
        ("0.5,0.0,0.0,zero,0.0,0.0", "has a cell that is not a number"),
        ("0.5,0.0,0.0,0.0,0.0,0.0,0.0", "needs 6 fields, got 7"),
    ], ids=["two-fields", "non-numeric-cell", "seven-fields"])
    def test_malformed_row_names_its_file_line(self, tmp_path, row, named):
        lines = self.lines(tmp_path)
        start = lines.index(",".join(MESH_CSV_COLUMNS))
        # comments and blank lines among the rows: the file line is not the row index
        lines[start + 2:start + 2] = ["# a note", "", "   "]
        k = start + 8  # data row 6 of 15, on file line k + 1
        lines[k] = row
        with pytest.raises(ValueError) as info:
            self.load(tmp_path, lines)
        assert str(info.value) == f"mesh line {k + 1} {named}: {row!r}"
