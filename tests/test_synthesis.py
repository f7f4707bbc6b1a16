import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from drmin import synthesis
from drmin.algebra import Kind
from drmin.expr import EvalError, WeierstrassData
from drmin.mesh import DomainGrid, SurfaceMesh
from drmin.presets import PRESETS, reference_error, reference_fields
from drmin.spaces import Point, SpaceKind, SpaceModel
from drmin.synthesis import (
    StepFailureError,
    ValidationRefusedError,
    _march,
    frame_matrix,
    path_independence,
    synthesize,
)
from drmin.weierstrass import validate
from oracles import mesh_tangent_consistency, tangent_field

S41 = SpaceModel(SpaceKind.FIRST, 1.0)
S43 = SpaceModel(SpaceKind.SECOND, 1.0)

AXIS_PARA = WeierstrassData.from_strings(["tau/u", "0", "0", "1/u"], Kind.PARA)
VERT_PARA = WeierstrassData.from_strings(["0", "0", "tau/(2*u)", "1/(2*u)"], Kind.PARA)

SMALL = DomainGrid(1, 2, -1, 1, 21, 21, 1, 0)


def preset_data(p):
    return WeierstrassData.from_strings(list(p.psi_texts), p.algebra)


class TestTangentField:
    def test_axis_data_at_base(self):
        # psi = (tau/u, 0, 0, 1/u) at u = u0, f = (0, k, 0, 0):
        # frame column 3 picks up -(c/2) y e^{t/2} from the first slot
        u0, k, c = 1.0, 2.0, 1.0
        fu, fv = tangent_field(S41, AXIS_PARA, Point(0.0, k, 0.0, 0.0), u0, 0.0)
        assert np.allclose(fu, [0.0, 0.0, 0.0, 2.0 / u0])
        assert np.allclose(fv, [2.0 / u0, 0.0, -c * k / u0, 0.0])

    def test_scales_with_height(self):
        t = 1.2
        fu, fv = tangent_field(S41, AXIS_PARA, Point(0.0, 0.0, 0.0, t), 1.0, 0.0)
        assert fv[0] == pytest.approx(2.0 * math.exp(t / 2))
        assert fu[3] == pytest.approx(2.0)

    def test_vertical_data(self):
        fu, fv = tangent_field(S43, VERT_PARA, Point(0.0, 0.0, 0.0, 0.0), 2.0, 0.0)
        assert np.allclose(fu, [0, 0, 0, 1 / 2.0])
        assert np.allclose(fv, [0, 0, 1 / 2.0, 0])


    def test_stacked_positions(self):
        pts = np.array([[0.1, 2.0, 0.3, 0.2], [0.0, -1.0, 0.0, -0.4], [1.5, 0.5, 2.0, 0.0]])
        us = np.array([1.0, 1.25, 1.75])
        fu, fv = tangent_field(S41, AXIS_PARA, pts, us, 0.5)
        assert fu.shape == fv.shape == (3, 4)
        for k in range(3):
            fu_k, fv_k = tangent_field(S41, AXIS_PARA, Point(*pts[k]), us[k], 0.5)
            assert np.array_equal(fu[k], fu_k) and np.array_equal(fv[k], fv_k)


class TestSynthesize:
    def test_base_node_is_exact(self):
        f0 = Point(0.3, -0.4, 0.2, 0.1)
        mesh = synthesize(S41, AXIS_PARA, SMALL, f0)
        i0, j0 = SMALL.base_index
        assert tuple(mesh.nodes[i0, j0]) == (0.3, -0.4, 0.2, 0.1)

    def test_matches_closed_form(self):
        p = PRESETS["s41-timelike-basic"]
        grid = p.grid.with_resolution(21, 21)
        mesh = synthesize(p.model(), preset_data(p), grid, p.f0)
        assert reference_error(p, mesh) <= 1e-7

    def test_all_presets_match_closed_form(self):
        for name, p in PRESETS.items():
            grid = p.grid.with_resolution(17, 17)
            mesh = synthesize(p.model(), preset_data(p), grid, p.f0)
            assert reference_error(p, mesh) <= 1e-7, name

    def test_causal_character_label(self):
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        assert mesh.causal_character == "timelike"

    def test_refuses_invalid_data(self):
        bad = WeierstrassData.from_strings(["tau*u", "v", "1", "u + v"], Kind.PARA)
        with pytest.raises(ValidationRefusedError) as exc:
            synthesize(S41, bad, SMALL)
        assert not exc.value.report.passed

    def test_force_overrides_refusal(self):
        bad = WeierstrassData.from_strings(["1", "0", "0", "1"], Kind.PARA)
        mesh = synthesize(S41, bad, SMALL, force=True)
        assert np.all(np.isfinite(mesh.nodes))

    def test_step_failure_on_pole(self):
        # 1/(u - 1.5) blows up inside the marching range
        w = WeierstrassData.from_strings(
            ["tau/(u - 1.5)", "0", "0", "1/(u - 1.5)"], Kind.PARA
        )
        grid = DomainGrid(1, 2, -1, 1, 41, 5, 1, 0)
        with pytest.raises(StepFailureError):
            synthesize(S41, w, grid, force=True)

    def test_precomputed_report_honored(self):
        report = validate(S41, AXIS_PARA, SMALL)
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0), report=report)
        assert mesh.nodes.shape == (21, 21, 4)


def oracle_rk4(rhs, y, coords, name):
    """The per-stage march: psi evaluated through tangent_field at every stage."""
    states = [y]
    for a, b in zip(coords[:-1], coords[1:]):
        h = b - a
        try:
            k1 = rhs(y, a)
            k2 = rhs(y + 0.5 * h * k1, a + 0.5 * h)
            k3 = rhs(y + 0.5 * h * k2, a + 0.5 * h)
            k4 = rhs(y + h * k3, b)
        except EvalError as exc:
            raise StepFailureError(f"evaluation failed during marching: {exc}") from exc
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise StepFailureError(f"non-finite state at {name} = {float(b)!r}")
        states.append(y)
    return np.stack(states)


def oracle_march(s, w, grid, f0, transposed):
    nodes = (grid.u_nodes, grid.v_nodes)
    base = grid.base_index
    first = 1 if transposed else 0
    second = 1 - first

    def sweep(state, axis, fixed):
        def rhs(y, x):
            uv = (x, fixed) if axis == 0 else (fixed, x)
            return tangent_field(s, w, y, *uv)[axis]

        coords, k = nodes[axis], base[axis]
        ahead = oracle_rk4(rhs, state, coords[k:], "uv"[axis])
        behind = oracle_rk4(rhs, state, coords[k::-1], "uv"[axis])
        return np.concatenate([behind[:0:-1], ahead])

    with np.errstate(over="ignore", invalid="ignore"):
        line = sweep(np.asarray(f0, dtype=float), first, nodes[second][base[second]])
        sheet = sweep(line, second, nodes[first])
    return sheet if transposed else sheet.swapaxes(0, 1)


def march_outcome(march, p, texts, grid, transposed, c=None):
    """The mesh bytes, or the StepFailureError text, of one march (in a model with c, if given)."""
    w = WeierstrassData.from_strings(texts, p.algebra)
    s = p.model() if c is None else dataclasses.replace(p.model(), c=c)
    try:
        return march(s, w, grid, p.f0, transposed).tobytes()
    except StepFailureError as exc:
        return str(exc)


BASIC = PRESETS["s41-timelike-basic"]
# on u in [0.23, 2.7] the lowest step's midpoint a + 0.5*h is 0.4358333333333334
# marched upward (base node 0.23) and 0.43583333333333335 marched downward (base
# node 2.7), which is also 0.5*(a + b)
SKEWED_AHEAD, SKEWED_BEHIND = (DomainGrid(0.23, 2.7, -1, 1, 7, 7, u0, 0) for u0 in (0.23, 2.7))


def entries_replaced(entries):
    """synthesis.frame_matrix with the given (row, column) entries replaced by value(p)."""

    def mutant(s, p, rows=(0, 1, 2, 3)):
        a = frame_matrix(s, p, rows)
        for (row, col), value in entries.items():
            if row in rows:
                a[..., rows.index(row), col] = value(np.asarray(p, dtype=float))
        return a

    return mutant


FRAME_MUTANTS = {
    "exp(-t/2) in rows 0-1": entries_replaced(
        {(r, r): lambda p: np.exp(-0.5 * p[..., 3]) for r in (0, 1)}),
    "exp(-t) in row 2": entries_replaced({(2, 2): lambda p: np.exp(-p[..., 3])}),
    "2 in row 3": entries_replaced({(3, 3): lambda p: 2.0}),
}


def off_centre(grid, **base):
    """The grid at 9x9 with its base node moved to the given u0 and/or v0."""
    return dataclasses.replace(grid.with_resolution(9, 9), **base)


# (preset, psi texts, c of the model or None for the preset's): the presets' psi
# depend on u alone, the v row on v too; every preset has c = 1, so the last row
# marches in a model with c = -1.3, where frame row 2 (z) reads c
MARCH_DATA = [
    pytest.param(name, list(p.psi_texts), None, id=name) for name, p in sorted(PRESETS.items())
]
MARCH_DATA.append(pytest.param("s41-timelike-basic", ["tau/u + 1e-4*v", "0", "0", "1/u"], None,
                               id="s41-timelike-basic-v"))
MARCH_DATA.append(pytest.param("s41-timelike-basic", list(BASIC.psi_texts), -1.3,
                               id="s41-timelike-basic-c-1.3"))


class TestLatticeMarchAgainstOracle:
    """The march on a precomputed psi lattice against the per-stage march."""

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("n", [
        9, 21, 33,
        # the two directions of a sweep differ in length: the longer one ends alone
        pytest.param(lambda grid: off_centre(grid, v0=-0.5), id="v0-below-centre"),
        pytest.param(lambda grid: off_centre(grid, v0=0.5), id="v0-above-centre"),
        pytest.param(lambda grid: off_centre(grid, u0=1.75, v0=-0.75),
                     id="both-off-centre"),
        pytest.param(lambda grid: SKEWED_AHEAD, id="skewed-ahead"),
        pytest.param(lambda grid: SKEWED_BEHIND, id="skewed-behind"),
        # the crossing lines are indexed by the base line's node count, so a
        # transposed index shows only off the square grid
        *(pytest.param(lambda grid, nu=nu, nv=nv: grid.with_resolution(nu, nv), id=f"{nu}x{nv}")
          for nu, nv in ((5, 13), (13, 5), (2, 9))),
        pytest.param(lambda grid: off_centre(grid, u0=grid.u_min, v0=grid.v_max),
                     id="corner-base"),
    ])
    @pytest.mark.parametrize("name, texts, c", MARCH_DATA)
    def test_meshes_bit_identical(self, name, texts, c, n, transposed):
        p = PRESETS[name]
        grid = p.grid.with_resolution(n, n) if isinstance(n, int) else n(p.grid)
        got = march_outcome(_march, p, texts, grid, transposed, c)
        assert isinstance(got, bytes)
        assert got == march_outcome(oracle_march, p, texts, grid, transposed, c)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_one_psi_evaluation_per_march(self, name, transposed, monkeypatch):
        # both sweeps share one flat lattice, and both directions of a sweep
        # its base row; the u sweep's behind direction has no step at the
        # presets' base node u_min
        grids = []
        real = synthesis.evaluate_grid

        def counted(trees, u, v, kind):
            grids.append(np.broadcast(u, v).shape)
            return real(trees, u, v, kind)

        monkeypatch.setattr(synthesis, "evaluate_grid", counted)
        p = PRESETS[name]
        _march(p.model(), preset_data(p), p.grid.with_resolution(9, 9), p.f0, transposed)
        # along u 9 nodes and 8 midpoints ahead; along v the base node, then
        # 4 nodes and 4 midpoints each way: 17 points on the base line, then
        # 17 on each of the 9 lines crossing it
        assert grids == [(17 + 17 * 9,)]

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("n", [2, 9, 17, 21])
    def test_one_frame_call_per_level(self, n, transposed, monkeypatch):
        # the base line and its crossing lines share each level's frame call:
        # up to 21^2 the four stages of all 20 + 20*21 steps fit one call of
        # synthesis.FRAME_POINTS (2048) points, so t, x and y, and z make 3
        calls = []

        def counted(s, p, rows=(0, 1, 2, 3)):
            calls.append(rows)
            return frame_matrix(s, p, rows)

        monkeypatch.setattr(synthesis, "frame_matrix", counted)
        for name, p in sorted(PRESETS.items()):
            calls.clear()
            _march(p.model(), preset_data(p), p.grid.with_resolution(n, n), p.f0, transposed)
            assert calls == [(3,), (0, 1), (2,)], name

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("slot, text, grid, expect", [
        (0, "tau/u + 1/(u-1.5)", 9, "division failed"),  # a u node line
        (0, "tau/u + 1/(u-1.45)", 11, "division failed"),  # the u midpoint 1.4 + 0.5*0.1
        (0, "tau/u + 1/(v-0.25)", 9, "division failed"),  # a v node line
        (0, "tau/u + 1/(v-0.125)", 9, "division failed"),  # a v midpoint ahead of v0
        (0, "tau/u + 1/(v+0.125)", 9, "division failed"),  # a v midpoint behind v0
        # midpoints taken per direction, to the last bit
        (0, "tau/u + 1/(u-0.4358333333333334)", SKEWED_AHEAD, "division failed"),
        (0, "tau/u + 1/(u-0.43583333333333335)", SKEWED_BEHIND, "division failed"),
        # a midpoint and the next node in one step: the midpoint's stage raises first
        (0, "tau/u + 1/(u-1.45) + 1/(u-1.5)", 11, "position 9"),
        # a node row failing differently along it: its first node in row-major order
        (0, "tau/u + 1/(v-0.25 + 100*(u-1)) + 1/(v-0.25)", 9, "position 9"),
        (3, "u^60", 11, "non-finite state at u = 1.2"),  # a state that blows up
        (1, "1/(u-1.5)", 9, "division failed"),  # a pole in psi2, which the x, y level reads
        # psi3 finite, but z's slope overflows, while x, y and t stay finite
        (2, "1e306*u^20", 9, "non-finite state at u = 1.25"),
        # one direction blows up at v = 0.5 (step 1) and reads a pole: at the next
        # node (step 2, k4), or at v = 0.5 itself (step 1, k4, before its state)
        (3, "1/u + tau*(v+1)^60 + tau/(v-0.75)", 9, "non-finite state at v = 0.5"),
        (3, "1/u + tau*(v+1)^60 + tau/(v-0.5)", 9, "position 24"),
        # both directions of one sweep fail, behind at an earlier step: ahead's error stands
        (0, "tau/u + 1/(v-0.75) + 2/(v+0.25)", 9, "position 9"),
        (3, "1/u + 1/(v+0.25) + tau*(v+1)^60", 9, "non-finite state at v = 0.5"),
        (0, "tau/u + 1/(v-0.5) + 2/(v+0.75)", off_centre(BASIC.grid, v0=-0.5), "position 9"),
        # only behind fails, while the longer ahead direction marches on
        (0, "tau/u + 1/(v+0.75)", off_centre(BASIC.grid, v0=-0.5), "position 9"),
        # the base line fails at a midpoint (u, v) = (1.8125, 0), or (1, 0.625) if
        # transposed, which no crossing line reads; crossing lines fail at their
        # first step's midpoint, (2, 0.125) or (1.0625, 1), ahead of the base
        # line's bad row in marching order: the base line's error stands
        (0, "tau/u + 1/(((u-1.8125)^2+v^2)*((u-1)^2+(v-0.625)^2))"
            " + 2/(((u-2)^2+(v-0.125)^2)*((u-1.0625)^2+(v-1)^2))", 9, "position 9"),
    ], ids=["u-node", "u-mid", "v-node", "v-mid-ahead", "v-mid-behind", "skewed-ahead",
            "skewed-behind", "stage-order", "row-order", "blow-up", "psi2-pole", "z-blow-up",
            "blow-up-then-pole", "pole-then-blow-up", "both-poles",
            "behind-pole-ahead-blow-up", "both-poles-off-centre", "behind-pole-off-centre",
            "base-line-before-crossing-lines"])
    def test_failures_identical(self, slot, text, grid, expect, transposed):
        texts = list(BASIC.psi_texts)
        texts[slot] = text
        if isinstance(grid, int):
            grid = BASIC.grid.with_resolution(grid, grid)
        got = march_outcome(_march, BASIC, texts, grid, transposed)
        assert isinstance(got, str) and expect in got
        assert got == march_outcome(oracle_march, BASIC, texts, grid, transposed)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_frame_read_through_synthesis(self, transposed, monkeypatch):
        # the march applies the frame only through the module attribute
        # synthesis.frame_matrix: a c -> -c mutant patched there moves the mesh
        grid = BASIC.grid.with_resolution(9, 9)
        genuine = march_outcome(_march, BASIC, list(BASIC.psi_texts), grid, transposed)
        monkeypatch.setattr(synthesis, "frame_matrix",
                            lambda s, p, *rows: frame_matrix(dataclasses.replace(s, c=-s.c),
                                                             p, *rows))
        mutant = march_outcome(_march, BASIC, list(BASIC.psi_texts), grid, transposed)
        assert isinstance(mutant, bytes) and mutant != genuine

    @pytest.mark.parametrize("mutant, name, transposed", [
        # rows 0 and 1 (x, y): the s43 vertical preset has psi1 = psi2 = 0
        ("exp(-t/2) in rows 0-1", "s41-timelike-basic", False),
        # row 2 (z): the one preset with psi3 != 0
        ("exp(-t) in row 2", "s43-timelike-vertical", False),
        # row 3 (t): every preset has psi4 != 0
        *(("2 in row 3", name, transposed) for name in sorted(PRESETS)
          for transposed in (False, True)),
    ])
    def test_each_level_reads_its_rows_through_synthesis(self, mutant, name, transposed,
                                                         monkeypatch):
        # each level applies the frame rows it asks synthesis.frame_matrix for: a
        # mutant of one entry moves the mesh of data that the entry multiplies.
        # The presets' x, y and z move along v only, so in the transposed order
        # rows 0-2 multiply psi only on the base line, where t = 0 and each
        # mutated entry equals the genuine one
        p = PRESETS[name]
        grid = p.grid.with_resolution(9, 9)
        genuine = march_outcome(_march, p, list(p.psi_texts), grid, transposed)
        monkeypatch.setattr(synthesis, "frame_matrix", FRAME_MUTANTS[mutant])
        moved = march_outcome(_march, p, list(p.psi_texts), grid, transposed)
        assert isinstance(moved, bytes) and moved != genuine

    def test_transient_memory_stays_flat(self):
        # one march at 129^2 peaks at about 8.2 MB: psi at the four stages of
        # every step of both sweeps and the stage points take about 2.1 MB
        # each, the x and y level's stages 1.1 MB, and FRAME_POINTS bounds a
        # frame call's rows and its product with psi to about 1 MB each; a
        # march that keeps the psi lattice's values until it returns peaks at
        # about 9.5 MB, and one that keeps the lattice's u and v parts at
        # about 8.7 MB
        grid = BASIC.grid.with_resolution(129, 129)
        tracemalloc.start()
        try:
            _march(BASIC.model(), preset_data(BASIC), grid, BASIC.f0, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6


class TestTranslationEquivariance:
    def test_z_shift_only_moves_z(self):
        # the metric has no z dependence, so shifting f0 in z shifts the
        # whole mesh rigidly in z
        a = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        b = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 5.0, 0))
        delta = b.nodes - a.nodes
        assert np.abs(delta[:, :, [0, 1, 3]]).max() <= 1e-9
        assert np.allclose(delta[:, :, 2], 5.0, atol=1e-9)


def forward_gap(s, w, grid, f0):
    return path_independence(s, w, synthesize(s, w, grid, f0, force=True))


class TestPathIndependence:
    def test_solution_data_integrable(self):
        gap = forward_gap(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        assert gap <= 1e-7

    def test_corrupted_data_diverges(self):
        # scaling one component breaks conformality/harmonicity and the
        # two marching orders disagree by orders of magnitude more
        good = forward_gap(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        corrupt = WeierstrassData.from_strings(
            ["tau/u", "0", "0", "1.1/u"], Kind.PARA
        )
        bad = forward_gap(S41, corrupt, SMALL, Point(0, 2, 0, 0))
        assert bad >= 1e3 * max(good, 1e-12)

    def test_starts_from_the_mesh_base_node(self):
        gap = forward_gap(S41, AXIS_PARA, SMALL, Point(0.3, 2, 5.0, 0.1))
        assert gap <= 1e-7


class TestMeshTangentConsistency:
    def test_second_order_in_h(self):
        p = PRESETS["s41-timelike-basic"]
        w = preset_data(p)
        gaps = []
        for n in (11, 21, 41):
            grid = p.grid.with_resolution(n, n)
            mesh = synthesize(p.model(), w, grid, p.f0)
            gaps.append(mesh_tangent_consistency(p.model(), w, mesh))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.35)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.35)


class TestRK4Convergence:
    def test_order_at_least_three_and_a_half(self):
        p = PRESETS["s41-timelike-basic"]
        errs = []
        for n in (11, 21, 41):
            grid = p.grid.with_resolution(n, n)
            mesh = synthesize(p.model(), preset_data(p), grid, p.f0)
            errs.append(reference_error(p, mesh))
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        assert min(rate1, rate2) >= 3.5


class TestMeshCsv:
    def test_round_trip(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        path = tmp_path / "mesh.csv"
        mesh.to_csv(path)
        back = SurfaceMesh.from_csv(path)
        assert back.space == mesh.space
        assert back.kind is mesh.kind
        assert back.c == mesh.c
        assert back.grid == mesh.grid
        # repr round trip keeps every bit
        assert np.array_equal(back.nodes, mesh.nodes)

    def test_truncated_file_rejected(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        path = tmp_path / "mesh.csv"
        mesh.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            SurfaceMesh.from_csv(path)

    def test_missing_metadata_rejected(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        path = tmp_path / "mesh.csv"
        mesh.to_csv(path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("# algebra")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="algebra"):
            SurfaceMesh.from_csv(path)

    def test_non_finite_grid_bound_rejected(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        path = tmp_path / "mesh.csv"
        mesh.to_csv(path)
        text = path.read_text().replace("# grid: 1.0 2.0 ", "# grid: 1.0 inf ")
        path.write_text(text)
        with pytest.raises(ValueError, match="u_max must be finite, got inf"):
            SurfaceMesh.from_csv(path)

    @pytest.mark.parametrize("bounds, named", [
        ((-1e308, 1e308, -1.0, 1.0), "span u_max - u_min must be finite, got inf"),
        ((1.0, 2.0, -1e308, 1e308), "span v_max - v_min must be finite, got inf"),
    ], ids=["u", "v"])
    def test_overflowing_grid_span_rejected(self, bounds, named):
        # finite bounds whose difference overflows would give linspace NaN nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                DomainGrid(*bounds, 9, 9, bounds[0], bounds[2])
        assert np.isfinite(DomainGrid(-1e307, 1e307, -1.0, 1.0, 9, 9, 0.0, 0.0).u_nodes).all()

    def test_deterministic_bytes(self, tmp_path):
        mesh = synthesize(S41, AXIS_PARA, SMALL, Point(0, 2, 0, 0))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        mesh.to_csv(p1)
        mesh.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReferenceFields:
    def test_axis_closed_form_values(self):
        from drmin.expr import evaluate

        p = PRESETS["s41-timelike-basic"]
        u0, v0 = p.grid.base_point
        refs = reference_fields(p)
        at_base = [evaluate(r, u0, v0, p.algebra).re for r in refs]
        assert np.allclose(at_base, p.f0.as_array())
        # x = x0 + 2(v - v0)/u0, t = t0 + 2 ln(u/u0)
        assert evaluate(refs[0], 2.0, 0.5, p.algebra).re == pytest.approx(2 * 0.5 / u0)
        assert evaluate(refs[3], 2.0, 0.5, p.algebra).re == pytest.approx(
            2 * math.log(2.0 / u0)
        )
