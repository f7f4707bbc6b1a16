import tracemalloc

import numpy as np
import pytest

from drmin import spaces, verify
from drmin.algebra import Kind
from drmin.expr import WeierstrassData
from drmin.mesh import DomainGrid
from drmin.presets import PRESETS
from drmin.spaces import Point, SpaceKind, SpaceModel
from drmin.synthesis import synthesize
from drmin.verify import (
    causal_character,
    pullback,
    tension_residual,
    verify_mesh,
)
from oracles import tension_residual_by_row

S41 = SpaceModel(SpaceKind.FIRST, 1.0)
S43 = SpaceModel(SpaceKind.SECOND, 1.0)

AXIS_PARA = WeierstrassData.from_strings(["tau/u", "0", "0", "1/u"], Kind.PARA)
AXIS_COMPLEX = WeierstrassData.from_strings(["i/u", "0", "0", "1/u"], Kind.COMPLEX)
VERT_PARA = WeierstrassData.from_strings(["0", "0", "tau/(2*u)", "1/(2*u)"], Kind.PARA)

GRID = DomainGrid(1, 2, -1, 1, 33, 33, 1, 0)


def axis_mesh(n=33):
    return synthesize(S41, AXIS_PARA, GRID.with_resolution(n, n), Point(0, 2, 0, 0))


class TestCausalCharacter:
    def test_three_characters(self):
        assert causal_character(1.0, 0.0, 1.0) == "spacelike"
        assert causal_character(-2.0, 0.0, 2.0) == "timelike"
        assert causal_character(0.0, 0.0, 0.0) == "degenerate"

    @pytest.mark.parametrize("E, F, G", [
        (np.nan, 0.0, 1.0), (1.0, np.nan, 1.0), (-1.0, 0.0, np.nan),
        (np.inf, 0.0, 1.0), (1.0, -np.inf, 1.0), (-np.inf, 0.0, np.inf),
    ])
    def test_non_finite_form_is_undefined(self, E, F, G):
        # NaN fails both the band test and det < 0, which reads spacelike
        assert causal_character(E, F, G) == "undefined"

    def test_band_scales_with_magnitude(self):
        # det is tiny relative to E, G: still inside the degeneracy band
        assert causal_character(1e4, 0.0, 1e-14) == "degenerate"
        assert causal_character(1.0, 0.0, 1e-4) == "spacelike"

    @pytest.mark.parametrize("E, F, G, char", [
        (1e200, 1e200, 1e200, "degenerate"),  # EG - F^2 = 0, though EG overflows
        (-1e200, 0.0, 1e200, "timelike"),  # det = -1e400, band = 1e-10 * 2e400
        (1e200, 0.0, 1e200, "spacelike"),
        (1e200, 2e200, 1e200, "timelike"),  # det = -3e400
        (1e-200, 0.0, 1e-200, "degenerate"),  # det = 1e-400 inside a band of at least 1e-10
        (1e-300, 0.0, 1e300, "degenerate"),  # det = 1 against a band of 1e590
    ])
    def test_products_that_overflow(self, E, F, G, char):
        assert causal_character(E, F, G) == char

    # sqrt(2e-10) rounded: F * F equals the band 1e-10 * (1 + 1*1 + 0*0) exactly
    EDGE_F = 1.4142135623730951e-05

    def test_band_edge_belongs_to_the_band(self):
        assert -(self.EDGE_F * self.EDGE_F) == -1e-10 * (1.0 + 1.0 * 1.0 + 0.0 * 0.0)
        assert causal_character(1.0, self.EDGE_F, 0.0) == "degenerate"
        assert causal_character(1.0, np.nextafter(self.EDGE_F, 0.0), 0.0) == "degenerate"
        assert causal_character(1.0, np.nextafter(self.EDGE_F, 1.0), 0.0) == "timelike"

    @pytest.mark.parametrize("scale, char", [(1.0 - 1e-9, "degenerate"), (1.0 + 1e-9, "spacelike")])
    def test_band_edge_spacelike(self, scale, char):
        # det = 1e3 * g against a band of 1e-10 * (1 + 1e6 + g^2): the edge at g = 1.000001e-7
        assert causal_character(1e3, 0.0, 1.000001e-7 * scale) == char

    @pytest.mark.parametrize("scale, char", [(1.0 - 1e-9, "degenerate"), (1.0 + 1e-9, "timelike")])
    def test_band_edge_timelike(self, scale, char):
        assert causal_character(-1.000001e-7 * scale, 0.0, 1e3) == char

    def test_det_at_and_just_below_zero(self):
        assert causal_character(2.0, 2.0, 2.0) == "degenerate"  # det = 0
        assert causal_character(2.0, 1.0, 0.25) == "timelike"  # det = 0.5 - 1; E/G - F*F = 7
        assert causal_character(1.0, 1e-4, 0.0) == "timelike"  # det = -1e-8, outside 2e-10

    def test_arrays_match_the_scalars(self):
        E, F, G = np.array([1e200, -2.0, 1.0]), np.array([1e200, 0.0, self.EDGE_F]), np.zeros(3)
        G[:2] = 1e200, 2.0
        got = causal_character(E, F, G)
        assert got.dtype == object and got.tolist() == ["degenerate", "timelike", "degenerate"]


class TestPullback:
    def test_axis_first_fundamental_form(self):
        # closed form gives E = -4/u^2, F = 0, G = 4/u^2
        mesh = axis_mesh()
        pb = pullback(S41, mesh)
        g = mesh.grid
        for i in range(1, g.nu - 1, 8):
            for j in range(1, g.nv - 1, 8):
                u = g.u_nodes[i]
                assert pb[i, j, 0] == pytest.approx(-4.0 / u**2, abs=5e-3)
                assert pb[i, j, 1] == pytest.approx(0.0, abs=5e-3)
                assert pb[i, j, 2] == pytest.approx(4.0 / u**2, abs=5e-3)

    def test_vertical_first_fundamental_form(self):
        # E = 1/u^2 (height direction), G = -1/u^2 (central direction)
        mesh = synthesize(S43, VERT_PARA, GRID, Point(1, -1, 0, 0))
        pb = pullback(S43, mesh)
        g = mesh.grid
        for i in range(1, g.nu - 1, 8):
            u = g.u_nodes[i]
            assert pb[i, g.nv // 2, 0] == pytest.approx(1.0 / u**2, abs=2e-3)
            assert pb[i, g.nv // 2, 2] == pytest.approx(-1.0 / u**2, abs=2e-3)

    def test_spacelike_diagonal_equality(self):
        mesh = synthesize(S43, AXIS_COMPLEX, GRID, Point(0, 2, 0, 0))
        pb = pullback(S43, mesh)
        interior = pb[1:-1, 1:-1]
        assert np.abs(interior[:, :, 0] - interior[:, :, 2]).max() <= 5e-3
        assert interior[:, :, 0].min() > 0  # positive definite pullback

    def test_fd_defect_second_order(self):
        defects = []
        for n in (17, 33, 65):
            mesh = axis_mesh(n)
            pb = pullback(S41, mesh)
            g = mesh.grid
            worst = 0.0
            for i in range(1, g.nu - 1):
                u = g.u_nodes[i]
                row = pb[i, 1:-1]
                worst = max(
                    worst,
                    np.abs(row[:, 0] + 4.0 / u**2).max(),
                    np.abs(row[:, 1]).max(),
                    np.abs(row[:, 2] - 4.0 / u**2).max(),
                )
            defects.append(worst)
        assert 3.0 <= defects[0] / defects[1] <= 5.0
        assert 3.0 <= defects[1] / defects[2] <= 5.0


class TestTension:
    def test_boundary_is_nan(self):
        mesh = axis_mesh(17)
        tension = tension_residual(S41, mesh)
        assert np.isnan(tension[0]).all() and np.isnan(tension[-1]).all()
        assert np.isnan(tension[:, 0]).all() and np.isnan(tension[:, -1]).all()
        assert np.isfinite(tension[1:-1, 1:-1]).all()

    def test_second_order_decay(self):
        sups = []
        for n in (17, 33, 65):
            mesh = axis_mesh(n)
            tension = tension_residual(S41, mesh)
            sups.append(float(np.abs(tension[1:-1, 1:-1]).max()))
        assert 3.0 <= sups[0] / sups[1] <= 5.0
        assert 3.0 <= sups[1] / sups[2] <= 5.0

    def test_non_minimal_surface_flagged(self):
        # a coordinate graph that is conformal nowhere near minimal:
        # bend the axis mesh by adding a quadratic bump in z
        mesh = axis_mesh(33)
        g = mesh.grid
        uu = g.u_nodes[:, None] - 1.5
        mesh.nodes[:, :, 2] += 3.0 * uu * uu
        tension = tension_residual(S41, mesh)
        assert float(np.abs(tension[1:-1, 1:-1]).max()) > 1.0


def verify_outputs(tmp_path, s, mesh, w, tag):
    """Tension bytes, verification.csv bytes and summary of one verify_mesh run."""
    report = verify_mesh(s, mesh, w)
    path = tmp_path / f"{tag}.csv"
    report.to_csv(path)
    return report.tension.tobytes(), path.read_bytes(), report.summary()


def assert_matches_one_row_blocks(tmp_path, monkeypatch, s, mesh, w=None):
    """Tension field, verification.csv and summary of one-row blocks, byte for byte."""
    blocked = verify_outputs(tmp_path, s, mesh, w, "blocked")
    with monkeypatch.context() as m:
        m.setattr(verify, "CHRISTOFFEL_NODES", 1)  # one row per block
        g = mesh.grid
        assert christoffel_blocks(monkeypatch, s, mesh) == [(1, g.nv - 2)] * (g.nu - 2)
        rows = verify_outputs(tmp_path, s, mesh, w, "rows")
    assert blocked == rows


# the stated bound on verify's tension against the full-Koszul per-row oracle, in units of
# eps * scale: the two routes round differently (contraction and solve against the inverse
# metric and einsums), the same complex-step derivatives enter both
TENSION_ULPS = 8


def assert_near_per_row_oracle(s, mesh):
    """Tension within TENSION_ULPS * eps * scale of tension_residual_by_row, NaN where it is NaN.

    scale = max|f_uu| + max|f_vv| + max|quad| over the finite interior,
    the sizes of the three terms the tension sums.
    """
    got, want = tension_residual(s, mesh), tension_residual_by_row(s, mesh)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    n = mesh.nodes
    du, dv = mesh.spacing
    sign = 1.0 if mesh.kind is Kind.COMPLEX else -1.0
    mid = n[1:-1, 1:-1]
    fuu = (n[2:, 1:-1] - 2.0 * mid + n[:-2, 1:-1]) / (du * du)
    fvv = (n[1:-1, 2:] - 2.0 * mid + n[1:-1, :-2]) / (dv * dv)
    quad = want[1:-1, 1:-1] - (fuu + sign * fvv)
    scale = sum(float(np.nanmax(np.abs(term))) for term in (fuu, fvv, quad))
    finite = ~np.isnan(want)
    assert np.abs(got[finite] - want[finite]).max() <= TENSION_ULPS * np.finfo(float).eps * scale


def christoffel_blocks(monkeypatch, s, mesh):
    """Leading shapes of the points of each Christoffel call tension_residual makes."""
    shapes = []
    inner = verify.christoffel_at

    def record(s, p, q):
        assert q.shape == p.shape + (4,)
        shapes.append(p.shape[:-1])
        return inner(s, p, q)

    with monkeypatch.context() as m:
        m.setattr(verify, "christoffel_at", record)
        tension_residual(s, mesh)
    return shapes


def preset_mesh(name, n):
    p = PRESETS[name]
    w = WeierstrassData.from_strings(p.psi_texts, p.algebra)
    return p.model(), synthesize(p.model(), w, p.grid.with_resolution(n, n), p.f0, force=True), w


class TestBlockedTension:
    @pytest.mark.parametrize("n", [9, 21, 33, 101])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_match_one_row_blocks(self, tmp_path, monkeypatch, name, n):
        assert_matches_one_row_blocks(tmp_path, monkeypatch, *preset_mesh(name, n))

    @pytest.mark.parametrize("n", [3, 9, 21, 33, 101, 129])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_near_per_row_oracle(self, name, n):
        s, mesh, _ = preset_mesh(name, n)
        assert_near_per_row_oracle(s, mesh)

    @pytest.mark.parametrize("nu, nv, blocks", [
        (33, 33, [(8, 31)] * 3 + [(7, 31)]),  # the rows do not divide into blocks
        (5, 300, [(1, 298)] * 3),  # a row is wider than the budget
        (300, 5, [(85, 3)] * 3 + [(43, 3)]),
        (3, 3, [(1, 1)]),
    ])
    def test_block_shapes_match_one_row_blocks(self, tmp_path, monkeypatch, nu, nv, blocks):
        mesh = synthesize(S41, AXIS_PARA, GRID.with_resolution(nu, nv), Point(0, 2, 0, 0))
        assert christoffel_blocks(monkeypatch, S41, mesh) == blocks
        assert_matches_one_row_blocks(tmp_path, monkeypatch, S41, mesh, AXIS_PARA)
        assert_near_per_row_oracle(S41, mesh)

    def test_nan_node_matches_one_row_blocks_and_oracle(self, tmp_path, monkeypatch):
        mesh = axis_mesh(17)
        mesh.nodes[8, 8, 0] = np.nan
        # the node and its four stencil neighbours
        assert np.isnan(tension_residual(S41, mesh)).any(axis=-1)[1:-1, 1:-1].sum() == 5
        assert_matches_one_row_blocks(tmp_path, monkeypatch, S41, mesh, AXIS_PARA)
        assert_near_per_row_oracle(S41, mesh)

    @pytest.mark.parametrize("axis, value", [(3, 800.0), (3, np.inf), (0, 1e200)])
    def test_singular_metric_node_reads_nan(self, monkeypatch, axis, value):
        # the metric there is exactly singular (e^{-800} is 0) or not finite: that node
        # alone reads NaN, and every other node matches one-row blocks, where only the
        # node's own row takes the singular-metric path
        mesh = axis_mesh(17)
        mesh.nodes[8, 8, axis] = value
        with np.errstate(all="ignore"):  # the stencils through the node overflow
            got = tension_residual(S41, mesh)
            with monkeypatch.context() as m:
                m.setattr(verify, "CHRISTOFFEL_NODES", 1)
                rows = tension_residual(S41, mesh)
        assert np.isnan(got[8, 8]).all()
        others = np.ones(got.shape[:2], dtype=bool)
        others[8, 8] = False
        assert got[others].tobytes() == rows[others].tobytes()

    def test_bent_mesh_near_per_row_oracle(self):
        # the non-minimal mesh of TestTension, where the tension is large
        mesh = axis_mesh(33)
        mesh.nodes[:, :, 2] += 3.0 * (mesh.grid.u_nodes[:, None] - 1.5) ** 2
        assert_near_per_row_oracle(S41, mesh)

    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    def test_negative_c_near_per_row_oracle(self, space_kind):
        s = SpaceModel(space_kind, -1.3)
        mesh = synthesize(s, AXIS_PARA, GRID.with_resolution(21, 21), Point(0, 2, 0, 0), force=True)
        assert_near_per_row_oracle(s, mesh)

    def test_one_christoffel_call_and_metric_call_per_block(self, monkeypatch):
        # counted, not timed: each block is one Christoffel call, and each Christoffel
        # call evaluates the metric once, at the four complex steps of every node
        calls = []
        inner_metric, inner_christoffel = spaces.metric_at, verify.christoffel_at

        def metric(s, p):
            assert np.iscomplexobj(p)
            calls.append(("metric_at", np.shape(p)))
            return inner_metric(s, p)

        def christoffel(s, p, q):
            calls.append(("christoffel_at", np.shape(p)))
            return inner_christoffel(s, p, q)

        monkeypatch.setattr(spaces, "metric_at", metric)
        monkeypatch.setattr(verify, "christoffel_at", christoffel)
        tension_residual(S41, axis_mesh(33))
        block = [("christoffel_at", (8, 31, 4)), ("metric_at", (8, 31, 4, 4))]
        assert calls == block * 3 + [("christoffel_at", (7, 31, 4)), ("metric_at", (7, 31, 4, 4))]

    def test_transient_memory_stays_flat(self):
        # the blocks bound the intermediates: 3.7 MB at 129^2 (four complex
        # metric evaluations per node), where one unblocked call over the
        # interior peaks at about 30 MB
        mesh = axis_mesh(129)
        tracemalloc.start()
        try:
            tension_residual(S41, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestVerifyMesh:
    def test_axis_passes_with_density_identity(self):
        mesh = axis_mesh()
        report = verify_mesh(S41, mesh, AXIS_PARA)
        assert report.passed, report.failures()
        assert report.interior_character == "timelike"
        assert report.density_gap is not None
        assert report.density_gap <= 1e-2

    def test_spacelike_character(self):
        mesh = synthesize(S43, AXIS_COMPLEX, GRID, Point(0, 2, 0, 0))
        report = verify_mesh(S43, mesh)
        assert report.interior_character == "spacelike"
        assert report.passed, report.failures()

    def test_space_mismatch_rejected(self):
        mesh = axis_mesh(9)
        with pytest.raises(ValueError):
            verify_mesh(S43, mesh)

    def test_c_mismatch_rejected(self):
        # a mesh made under c = 2, against the preset's c = 1 model
        p = PRESETS["s41-timelike-basic"]
        w = WeierstrassData.from_strings(p.psi_texts, p.algebra)
        mesh = synthesize(SpaceModel(p.space, 2.0), w, p.grid.with_resolution(9, 9), p.f0,
                          force=True)
        with pytest.raises(ValueError, match=r"\(c 2\.0 vs 1\.0\); refusing"):
            verify_mesh(p.model(), mesh, w)

    def test_algebra_mismatch_rejected_when_psi_given(self):
        mesh = axis_mesh(9)
        with pytest.raises(ValueError, match=r"\(algebra para vs complex\)"):
            verify_mesh(S41, mesh, AXIS_COMPLEX)
        assert verify_mesh(S41, mesh).density_gap is None  # no data, no algebra to compare

    def test_mesh_without_interior_rejected(self):
        mesh = synthesize(S41, AXIS_PARA, GRID.with_resolution(2, 9), Point(0, 2, 0, 0))
        with pytest.raises(ValueError, match="at least 3x3"):
            verify_mesh(S41, mesh, AXIS_PARA)

    def test_density_identity_matches_condition_i(self):
        # the grid route of the density identity against condition_i per node
        from drmin.weierstrass import condition_i

        mesh = axis_mesh(9)
        report = verify_mesh(S41, mesh, AXIS_PARA)
        g = mesh.grid
        want = max(
            abs(2.0 * condition_i(S41, AXIS_PARA, float(g.u_nodes[i]), float(g.v_nodes[j]))
                - report.pullbacks[i, j, 0])
            for i in range(1, g.nu - 1) for j in range(1, g.nv - 1)
        )
        assert report.density_gap == want

    def test_perturbed_node_detected(self):
        mesh = axis_mesh(33)
        mesh.nodes[16, 16] += np.array([0.05, 0.0, 0.0, 0.0])
        report = verify_mesh(S41, mesh, AXIS_PARA)
        assert not report.passed
        assert report.tension_sup > 1.0

    def test_summary_and_csv(self, tmp_path):
        mesh = axis_mesh(9)
        report = verify_mesh(S41, mesh)
        text = report.summary()
        assert "causal character" in text and "tension" in text
        out = tmp_path / "verify.csv"
        report.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,v,E,F,G,char,tension_norm"
        assert len(lines) == 1 + 81
        assert "timelike" in lines[41]


class TestNonFinite:
    def test_nan_node_fails(self):
        mesh = axis_mesh(17)
        mesh.nodes[8, 8, 0] = np.nan
        report = verify_mesh(S41, mesh, AXIS_PARA)
        failures = report.failures()
        assert not report.passed
        assert any("conformality defect" in f for f in failures)
        assert any("tension" in f for f in failures)
        assert np.isnan(report.density_gap)
        assert any("density" in f for f in failures)

    def test_nan_node_labelled_undefined(self, tmp_path):
        # the NaN node and its four neighbours, whose central differences read it
        mesh = axis_mesh(9)
        mesh.nodes[4, 5, 3] = np.nan
        report = verify_mesh(S41, mesh)
        hit = {(4, 5), (3, 5), (5, 5), (4, 4), (4, 6)}
        chars = report.characters
        assert {ij for ij in np.ndindex(chars.shape) if chars[ij] == "undefined"} == hit
        assert set(chars[1:-1, 1:-1].ravel()) == {"timelike", "undefined"}
        assert report.interior_character == "mixed" and not report.passed
        report.to_csv(tmp_path / "verification.csv")
        row = (tmp_path / "verification.csv").read_text().splitlines()[1 + 4 * 9 + 5]
        assert row == "1.5,0.25,nan,nan,nan,undefined,nan"


class TestIndependence:
    def test_never_reaches_symbolic_derivatives_or_l_table(self, monkeypatch):
        p = PRESETS["s41-timelike-basic"]
        w = WeierstrassData.from_strings(p.psi_texts, p.algebra)
        mesh = synthesize(p.model(), w, p.grid.with_resolution(21, 21), p.f0)

        def forbidden(*args, **kwargs):
            raise AssertionError("verify reached a route it must stay independent of")

        # each forbidden route at its one home
        for target in ("drmin.expr._Derivatives", "drmin.expr.wirtinger_bar",
                       "drmin.weierstrass.l_table", "drmin.synthesis.frame_matrix"):
            monkeypatch.setattr(target, forbidden)
        monkeypatch.setattr(WeierstrassData, "bars", property(forbidden))
        report = verify_mesh(p.model(), mesh, w)
        assert report.passed, report.failures()
        assert report.density_gap is not None
