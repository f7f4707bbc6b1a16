import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

from drmin.algebra import Kind, Scalar
from drmin.expr import Add, Const, Mul, Unit, WeierstrassData
from drmin.mesh import DomainGrid
from drmin.presets import PRESETS
from drmin.spaces import SpaceKind, SpaceModel
from drmin.weierstrass import (
    ValidationTolerances,
    condition_i,
    condition_ii,
    harmonicity_residual_explicit,
    l_table,
    validate,
)
from oracles import harmonicity_residual_generic

S41 = SpaceModel(SpaceKind.FIRST, 1.0)
S43 = SpaceModel(SpaceKind.SECOND, 1.0)

AXIS_PARA = WeierstrassData.from_strings(["tau/u", "0", "0", "1/u"], Kind.PARA)
AXIS_COMPLEX = WeierstrassData.from_strings(["i/u", "0", "0", "1/u"], Kind.COMPLEX)
R2 = repr(math.sqrt(2.0))
DIAG_PARA = WeierstrassData.from_strings(
    [f"tau/({R2}*u)", f"tau/({R2}*u)", "0", "1/u"], Kind.PARA
)
VERT_PARA = WeierstrassData.from_strings(["0", "0", "tau/(2*u)", "1/(2*u)"], Kind.PARA)


def constant_data(vals, kind):
    trees = []
    for re, im in vals:
        trees.append(Add(Const(float(re)), Mul(Const(float(im)), Unit())))
    return WeierstrassData(tuple(trees), kind)


class TestGrid:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            DomainGrid(1, 1, 0, 1, 10, 10, 1, 0)
        with pytest.raises(ValueError):
            DomainGrid(0, 1, 0, 1, 1, 10, 0, 0)
        with pytest.raises(ValueError):
            DomainGrid(0, 1, 0, 1, 10, 10, 2.0, 0)

    @pytest.mark.parametrize("bounds", [(1.5, 1.5, 0.0, 1.0), (1.0, 2.0, 0.5, 0.5)],
                             ids=["u", "v"])
    def test_zero_width_rejected(self, bounds):
        with pytest.raises(ValueError, match="degenerate rectangle"):
            DomainGrid(*bounds, 5, 5, bounds[0], bounds[2])

    def test_nodes_built_once_and_read_only(self):
        g = DomainGrid(1, 2, -1, 1, 11, 21, 1.33, 0.05)
        assert g.u_nodes is g.u_nodes and g.v_nodes is g.v_nodes
        assert g.base_index is g.base_index
        for nodes in (g.u_nodes, g.v_nodes):
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 7.0
        assert g.u_nodes[0] == 1.0 and g.v_nodes[0] == -1.0
        assert g.u_nodes.tobytes() == np.linspace(1, 2, 11).tobytes()
        assert g == DomainGrid(1, 2, -1, 1, 11, 21, 1.33, 0.05)

    def test_base_point_snaps_to_node(self):
        g = DomainGrid(1, 2, -1, 1, 11, 21, 1.33, 0.05)
        i0, j0 = g.base_index
        u0, v0 = g.u_nodes[i0], g.v_nodes[j0]
        assert abs(u0 - 1.33) <= 0.05 + 1e-12
        assert abs(v0 - 0.05) <= 0.05 + 1e-12


class TestConditionI:
    def test_axis_para_density(self):
        # |tau|^2 = -1 and -|1|^2 = -1 at u = 1
        assert condition_i(S41, AXIS_PARA, 1.0, 0.0) == pytest.approx(-2.0)

    def test_vertical_density(self):
        # second-kind signature flips the third slot: -(-1/4) + 1/4
        assert condition_i(S43, VERT_PARA, 1.0, 0.0) == pytest.approx(0.5)

    def test_zero_data_degenerate(self):
        w = constant_data([(0, 0)] * 4, Kind.PARA)
        assert condition_i(S41, w, 1.0, 0.0) == 0.0


class TestConditionII:
    @pytest.mark.parametrize("u,v", [(1.0, 0.0), (1.7, 0.4), (3.0, -2.0)])
    def test_axis_para_isotropy(self, u, v):
        out = condition_ii(S41, AXIS_PARA, u, v)
        assert abs(out.re) <= 1e-14 and abs(out.im) <= 1e-14

    def test_axis_complex_isotropy(self):
        out = condition_ii(S43, AXIS_COMPLEX, 1.3, 0.2)
        assert abs(out.re) <= 1e-14 and abs(out.im) <= 1e-14

    def test_nonisotropic_data_fails(self):
        w = constant_data([(1, 0), (0, 0), (0, 0), (0, 0)], Kind.PARA)
        out = condition_ii(S41, w, 0.0, 0.0)
        assert out.re == pytest.approx(1.0)


class TestHarmonicityGeneric:
    def test_axis_solution_vanishes(self):
        rng = random.Random(0)
        L = l_table(S41)
        for _ in range(50):
            u, v = rng.uniform(1, 2), rng.uniform(-1, 1)
            res = harmonicity_residual_generic(L, AXIS_PARA, u, v)
            for r in res:
                assert abs(r.re) <= 1e-12 and abs(r.im) <= 1e-12

    def test_constant_timelike_direction(self):
        w = constant_data([(0, 0), (0, 0), (0, 0), (1, 0)], Kind.PARA)
        res = harmonicity_residual_generic(l_table(S41), w, 0.3, 0.4)
        for r in res:
            assert abs(r.re) <= 1e-14 and abs(r.im) <= 1e-14

    def test_constant_mixed_data(self):
        # psi = (1, 0, 0, 1): r1 = -psi1*psi4/2 = -1/2, r4 = -psi1*psi1/2 = -1/2
        w = constant_data([(1, 0), (0, 0), (0, 0), (1, 0)], Kind.PARA)
        r1, r2, r3, r4 = harmonicity_residual_generic(l_table(S41), w, 0.0, 0.0)
        assert r1.is_close(Scalar(-0.5, 0, Kind.PARA))
        assert r2.is_close(Scalar(0, 0, Kind.PARA))
        assert r3.is_close(Scalar(0, 0, Kind.PARA))
        assert r4.is_close(Scalar(-0.5, 0, Kind.PARA))


def random_smooth_data(rng, kind):
    """Small random polynomial-plus-trig component quadruples."""

    def coef():
        return round(rng.uniform(-1.5, 1.5), 3)

    texts = []
    for _ in range(4):
        parts = [f"({coef()})", f"({coef()})*u", f"({coef()})*v", f"({coef()})*u*v"]
        if rng.random() < 0.5:
            parts.append(f"({coef()})*sin(u)")
        if rng.random() < 0.5:
            parts.append(f"({coef()})*{kind.unit_symbol}*cos(v)")
        if rng.random() < 0.3:
            parts.append(f"({coef()})*{kind.unit_symbol}*u^2")
        texts.append(" + ".join(parts))
    return WeierstrassData.from_strings(texts, kind)


class TestGenericExplicitEquivalence:
    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    @pytest.mark.parametrize("kind", [Kind.PARA, Kind.COMPLEX])
    def test_random_data(self, space_kind, kind):
        rng = random.Random(17)
        for _ in range(25):
            s = SpaceModel(space_kind, rng.uniform(-2, 2))
            w = random_smooth_data(rng, kind)
            L = l_table(s)
            for _ in range(5):
                u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
                gen = harmonicity_residual_generic(L, w, u, v)
                exp_ = harmonicity_residual_explicit(s, w, u, v)
                for a, b in zip(gen, exp_):
                    assert abs(a.re - b.re) <= 1e-12
                    assert abs(a.im - b.im) <= 1e-12

    def test_explicit_on_solutions(self):
        for s, w in [(S43, VERT_PARA), (S41, DIAG_PARA), (S43, AXIS_COMPLEX)]:
            res = harmonicity_residual_explicit(s, w, 1.4, 0.3)
            for r in res:
                assert abs(r.re) <= 1e-12 and abs(r.im) <= 1e-12


class TestFiniteDifferenceAgreement:
    def test_fd_bar_derivative_matches(self):
        # residuals recomputed with FD bar-derivatives differ by O(h^2)
        from drmin import expr as E

        w = AXIS_PARA
        L = l_table(S41)
        u, v = 1.5, 0.2
        for h in (1e-3, 5e-4):
            fd_res = []
            for k in range(4):
                du_hi = E.evaluate(w.psi[k], u + h, v, w.kind)
                du_lo = E.evaluate(w.psi[k], u - h, v, w.kind)
                dv_hi = E.evaluate(w.psi[k], u, v + h, w.kind)
                dv_lo = E.evaluate(w.psi[k], u, v - h, w.kind)
                du = Scalar((du_hi.re - du_lo.re) / (2 * h), (du_hi.im - du_lo.im) / (2 * h), w.kind)
                dv = Scalar((dv_hi.re - dv_lo.re) / (2 * h), (dv_hi.im - dv_lo.im) / (2 * h), w.kind)
                fd_res.append(0.5 * (du - Scalar(0.0, 1.0, w.kind) * dv))
            psi = w.eval_components(u, v)
            from drmin.algebra import conj

            res = list(fd_res)
            for (i, j, k), val in L.items():
                res[k - 1] = res[k - 1] + 0.5 * val * (conj(psi[i - 1]) * psi[j - 1])
            sup = max(max(abs(r.re), abs(r.im)) for r in res)
            # exact residual is 0; FD truncation is h^2 * |psi'''| / 6
            assert sup <= 2.0 * h * h


class TestValidate:
    def test_axis_para_passes(self):
        grid = DomainGrid(1, 2, -1, 1, 51, 51, 1, 0)
        report = validate(S41, AXIS_PARA, grid)
        assert report.passed
        assert report.harmonicity_sup <= 1e-12
        assert report.conformality_sup <= 1e-14
        assert report.immersion_min >= 0.5  # 2/u^2 >= 1/2 on [1,2]

    def test_random_non_solution_fails_with_location(self):
        w = WeierstrassData.from_strings(["tau*u", "v", "1", "u + v"], Kind.PARA)
        grid = DomainGrid(1, 2, -1, 1, 21, 21, 1, 0)
        report = validate(S41, w, grid)
        assert not report.passed
        wu, wv = report.worst_node()
        assert 1 <= wu <= 2 and -1 <= wv <= 1
        assert any("harmonicity" in f for f in report.failures())

    def test_degenerate_data_flagged(self):
        # harmonic but vanishing density: psi = 0
        w = constant_data([(0, 0)] * 4, Kind.PARA)
        grid = DomainGrid(0, 1, 0, 1, 11, 11, 0, 0)
        report = validate(S41, w, grid)
        assert not report.passed
        assert any("degenerate (non-immersion)" in f for f in report.failures())

    def test_eval_errors_masked_not_fatal(self):
        # pole at u = 0 sits on the grid boundary; that node is recorded
        w = AXIS_PARA
        grid = DomainGrid(0, 1, 0, 1, 11, 11, 0.5, 0.5)
        report = validate(S41, w, grid)
        assert not report.all_nodes_ok
        assert len(report.errors) == 11  # the whole u = 0 edge
        assert not report.passed

    def test_overflow_masks_nodes(self):
        p = PRESETS["s41-timelike-basic"]
        texts = list(p.psi_texts)
        texts[0] = f"{texts[0]} + exp(1000*u)"
        w = WeierstrassData.from_strings(texts, p.algebra)
        report = validate(p.model(), w, p.grid.with_resolution(9, 9))
        assert not report.passed
        assert not report.node_ok.any()  # exp(1000*u) overflows for every u in [1, 2]
        assert "81 nodes failed to evaluate" in report.failures()
        assert "exp failed" in report.errors[0][2]
        # no node evaluated, so the summary names no worst node
        assert report.worst_node() is None
        assert report.summary().endswith("verdict: FAIL\n    - 81 nodes failed to evaluate")

    def test_worst_node_skips_masked_nodes(self):
        # the pole line u = 1.5 is masked; the named node holds the harmonicity sup
        p = PRESETS["s41-timelike-basic"]
        texts = list(p.psi_texts)
        texts[0] = f"{texts[0]} + 1/(u-1.5)"
        w = WeierstrassData.from_strings(texts, p.algebra)
        report = validate(p.model(), w, p.grid.with_resolution(9, 9))
        assert not report.node_ok[4].any()  # u = 1.5
        wu, wv = report.worst_node()
        assert wu != 1.5
        i, j = list(report.grid.u_nodes).index(wu), list(report.grid.v_nodes).index(wv)
        assert report.node_ok[i, j]
        worst = max(math.hypot(re, im) for re, im in
                    zip(report.residual_re[:, i, j], report.residual_im[:, i, j]))
        assert worst == report.harmonicity_sup
        assert report.summary().endswith(f"max residual near (u, v) = ({wu:.6g}, {wv:.6g})")

    def test_nan_residual_fails(self):
        grid = DomainGrid(1, 2, -1, 1, 6, 6, 1, 0)
        report = validate(S41, AXIS_PARA, grid)
        assert report.passed
        report.residual_re[2, 3, 3] = math.nan
        report.cond_ii_im[1, 1] = math.nan
        failures = report.failures()
        assert any("harmonicity" in f for f in failures)
        assert any("conformality" in f for f in failures)

    def test_csv_export(self, tmp_path):
        grid = DomainGrid(1, 2, -1, 1, 6, 6, 1, 0)
        report = validate(S41, AXIS_PARA, grid)
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:5] == ["u", "v", "cond_i", "cond_ii_re", "cond_ii_im"]
        assert len(lines) == 1 + 36

    def test_tolerances_respected(self):
        grid = DomainGrid(1, 2, -1, 1, 11, 11, 1, 0)
        strict = ValidationTolerances(harmonicity=1e-30, conformality=1e-30)
        report = validate(S41, AXIS_PARA, grid, strict)
        # sup-norms are tiny but nonzero, so absurdly strict tolerances fail
        assert report.harmonicity_sup <= 1e-12
        assert not report.passed or report.harmonicity_sup == 0.0

    def test_validated_data_leaves_nothing_behind(self):
        # the derivative trees live on the data: once the data is dropped,
        # no formula validated before stays held by the process
        grid = DomainGrid(1, 2, -1, 1, 5, 5, 1, 0)

        def data(k):
            return WeierstrassData.from_strings(
                [f"tau/u + {k}*exp(u*v)/(1 + u^2)", "0", "0", "1/u"], Kind.PARA
            )

        validate(S41, data(-1), grid)  # first-use allocations stay out of the count
        gc.collect()
        tracemalloc.start()
        try:
            for k in range(100):
                validate(S41, data(k), grid)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.2e6, f"{held} bytes still held"
