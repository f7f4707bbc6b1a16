import numpy as np
import pytest

from drmin.algebra import Kind
from drmin.expr import WeierstrassData
from drmin.presets import PRESETS
from drmin.spaces import Point, SpaceKind, SpaceModel
from drmin.synthesis import synthesize
from drmin.verify import (
    causal_character,
    pullback,
    tension_residual,
    verify_mesh,
)
from drmin.weierstrass import DomainGrid

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

    def test_band_scales_with_magnitude(self):
        # det is tiny relative to E, G: still inside the degeneracy band
        assert causal_character(1e4, 0.0, 1e-14) == "degenerate"
        assert causal_character(1.0, 0.0, 1e-4) == "spacelike"


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


class TestIndependence:
    def test_never_reaches_symbolic_derivatives_or_l_table(self, monkeypatch):
        p = PRESETS["s41-timelike-basic"]
        w = WeierstrassData.from_strings(p.psi_texts, p.algebra)
        mesh = synthesize(p.model(), w, p.grid.with_resolution(21, 21), p.f0)

        def forbidden(*args, **kwargs):
            raise AssertionError("verify reached a route it must stay independent of")

        for target in ("drmin.expr.diff", "drmin.expr.wirtinger_bar",
                       "drmin.spaces.l_table", "drmin.weierstrass.l_table"):
            monkeypatch.setattr(target, forbidden)
        report = verify_mesh(p.model(), mesh, w)
        assert report.passed, report.failures()
        assert report.density_gap is not None
