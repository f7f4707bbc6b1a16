import math

import numpy as np
import pytest

from drmin.algebra import Kind
from drmin.expr import WeierstrassData
from drmin.presets import PRESETS, reference_error, reference_fields
from drmin.spaces import Point, SpaceKind, SpaceModel
from drmin.synthesis import (
    StepFailureError,
    SurfaceMesh,
    ValidationRefusedError,
    mesh_tangent_consistency,
    path_independence,
    synthesize,
    tangent_field,
)
from drmin.weierstrass import DomainGrid, validate

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
