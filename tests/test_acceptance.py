"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single pass/fail line so
the suite output doubles as a checklist.  Shared synthesized meshes are
built once per session to keep the whole gate fast.
"""

import math
import random

import numpy as np
import pytest

from drmin import algebra
from drmin.algebra import Kind, Scalar, conj, merge_split, modulus_sq, split_iso
from drmin.expr import WeierstrassData
from drmin.presets import PRESETS, reference_error
from drmin.spaces import (
    Point,
    SpaceKind,
    SpaceModel,
    frame_connection,
    frame_connection_via_christoffel,
    frame_matrix,
    l_table,
    metric_at,
)
from drmin.synthesis import path_independence, synthesize
from drmin.verify import tension_residual, verify_mesh
from drmin.weierstrass import (
    harmonicity_residual_explicit,
    harmonicity_residual_generic,
    validate,
)

BASIC = "s41-timelike-basic"


def report(num, label, value, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{verdict}] {label}: {value}")
    assert ok, f"criterion {num} failed: {label} = {value}"


def preset_data(p):
    return WeierstrassData.from_strings(list(p.psi_texts), p.algebra)


@pytest.fixture(scope="module")
def meshes():
    out = {}
    for name, p in PRESETS.items():
        out[name] = synthesize(p.model(), preset_data(p), p.grid, p.f0)
    return out


class TestAcceptance:
    def test_criterion_1_golden_examples(self, meshes):
        worst = max(reference_error(PRESETS[n], meshes[n]) for n in PRESETS)
        report(1, "max closed-form coordinate error over presets", f"{worst:.3e}", worst <= 1e-8)

    def test_criterion_2_residual_certification(self):
        worst_h = worst_c = 0.0
        for name, p in PRESETS.items():
            rep = validate(p.model(), preset_data(p), p.grid)
            worst_h = max(worst_h, rep.harmonicity_sup)
            worst_c = max(worst_c, rep.conformality_sup)
        ok = worst_h <= 1e-12 and worst_c <= 1e-14
        report(
            2,
            "harmonicity / conformality sup-norms",
            f"{worst_h:.3e} / {worst_c:.3e}",
            ok,
        )

    def test_criterion_3_generic_explicit_equivalence(self):
        from test_weierstrass import random_smooth_data

        rng = random.Random(123)
        worst = 0.0
        for space_kind in SpaceKind:
            for _ in range(200):
                s = SpaceModel(space_kind, rng.uniform(-2, 2))
                kind = rng.choice([Kind.PARA, Kind.COMPLEX])
                w = random_smooth_data(rng, kind)
                L = l_table(s)
                for _ in range(20):
                    u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
                    gen = harmonicity_residual_generic(L, w, u, v)
                    exp_ = harmonicity_residual_explicit(s, w, u, v)
                    for a, b in zip(gen, exp_):
                        worst = max(worst, abs(a.re - b.re), abs(a.im - b.im))
        report(3, "generic vs explicit residual gap", f"{worst:.3e}", worst <= 1e-12)

    def test_criterion_4_frame_orthonormality(self):
        rng = random.Random(321)
        worst = 0.0
        for space_kind in SpaceKind:
            for _ in range(1000):
                s = SpaceModel(space_kind, rng.uniform(-2, 2))
                p = Point(
                    rng.uniform(-3, 3), rng.uniform(-3, 3),
                    rng.uniform(-3, 3), rng.uniform(-2, 2),
                )
                A = frame_matrix(s, p)
                G = metric_at(s, p)
                gap = np.abs(A.T @ G @ A - np.diag(s.signature)).max()
                worst = max(worst, float(gap) / max(1.0, float(np.abs(G).max())))
        report(4, "frame orthonormality defect", f"{worst:.3e}", worst <= 1e-12)

    def test_criterion_5_connection_consistency(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(100):
            space_kind = rng.choice(list(SpaceKind))
            s = SpaceModel(space_kind, rng.uniform(-2, 2))
            p = Point(
                rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(-2, 2), rng.uniform(-1.5, 1.5),
            )
            i, j = rng.randint(1, 4), rng.randint(1, 4)
            via = frame_connection_via_christoffel(s, p, i, j)
            worst = max(worst, float(np.abs(via - frame_connection(s, i, j)).max()))
        report(5, "frame tables vs coordinate oracle", f"{worst:.3e}", worst <= 1e-6)

    def test_criterion_6_path_independence(self):
        worst_clean = 0.0
        for name, p in PRESETS.items():
            mesh = synthesize(p.model(), preset_data(p), p.grid, p.f0, force=True)
            gap = path_independence(p.model(), preset_data(p), mesh)
            worst_clean = max(worst_clean, gap)
        # corruption check on a coarser grid; the ratio is grid-consistent
        ratios = []
        for name, p in PRESETS.items():
            grid = p.grid.with_resolution(41, 41)
            mesh = synthesize(p.model(), preset_data(p), grid, p.f0, force=True)
            clean = path_independence(p.model(), preset_data(p), mesh)
            texts = list(p.psi_texts)
            texts[3] = f"1.1*({texts[3]})"
            corrupt = WeierstrassData.from_strings(texts, p.algebra)
            mesh = synthesize(p.model(), corrupt, grid, p.f0, force=True)
            bad = path_independence(p.model(), corrupt, mesh)
            ratios.append(bad / max(clean, 1e-300))
        ok = worst_clean <= 1e-8 and min(ratios) >= 1e3
        report(
            6,
            "clean gap / min corruption amplification",
            f"{worst_clean:.3e} / {min(ratios):.1e}x",
            ok,
        )

    def test_criterion_7_convergence_orders(self):
        p = PRESETS[BASIC]
        w = preset_data(p)
        errs = []
        for n in (11, 21, 41):
            mesh = synthesize(p.model(), w, p.grid.with_resolution(n, n), p.f0)
            errs.append(reference_error(p, mesh))
        rk4_order = min(
            math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
        )
        tension_ratios = []
        conf_ratios = []
        prev_t = prev_c = None
        for n in (17, 33, 65, 129):
            mesh = synthesize(p.model(), w, p.grid.with_resolution(n, n), p.f0)
            rep = verify_mesh(p.model(), mesh)
            t_sup = rep.tension_sup
            c_sup = rep.conformality_defect
            if prev_t is not None:
                tension_ratios.append(prev_t / t_sup)
                conf_ratios.append(prev_c / c_sup)
            prev_t, prev_c = t_sup, c_sup
        ok = (
            rk4_order >= 3.5
            and all(3.0 <= r <= 5.0 for r in tension_ratios)
            and all(3.0 <= r <= 5.0 for r in conf_ratios)
        )
        report(
            7,
            "integrator order / tension ratios / conformality ratios",
            f"{rk4_order:.2f} / "
            + ",".join(f"{r:.2f}" for r in tension_ratios)
            + " / "
            + ",".join(f"{r:.2f}" for r in conf_ratios),
            ok,
        )

    def test_criterion_8_causal_character(self, meshes):
        expected = {
            "s41-timelike-basic": "timelike",
            "s41-timelike-diagonal": "timelike",
            "s43-spacelike-basic": "spacelike",
            "s43-timelike-vertical": "timelike",
        }
        got = {}
        for name, p in PRESETS.items():
            rep = verify_mesh(p.model(), meshes[name], preset_data(p))
            got[name] = rep.interior_character
            assert rep.passed, (name, rep.failures())
        ok = got == expected
        report(8, "verified causal characters", got, ok)

    def test_criterion_9_algebra_properties(self):
        rng = random.Random(99)
        tol = 1e-12
        worst = 0.0

        def rand_scalar(kind):
            return Scalar(rng.uniform(-10, 10), rng.uniform(-10, 10), kind)

        for _ in range(10_000):
            kind = rng.choice([Kind.PARA, Kind.COMPLEX])
            a, b, c = (rand_scalar(kind) for _ in range(3))
            scale = 1.0 + max(
                abs(x) for s in (a, b, c) for x in (s.re, s.im)
            ) ** 3

            def gap(x, y):
                return max(abs(x.re - y.re), abs(x.im - y.im)) / scale

            worst = max(
                worst,
                gap((a + b) + c, a + (b + c)),
                gap((a * b) * c, a * (b * c)),
                gap(a * (b + c), a * b + a * c),
                gap(conj(conj(a)), a),
                gap(conj(a * b), conj(a) * conj(b)),
                abs(modulus_sq(a * b) - modulus_sq(a) * modulus_sq(b)) / scale**2,
            )
            if kind is Kind.PARA:
                back = merge_split(*split_iso(a))
                worst = max(worst, gap(back, a))
                ps, qs = split_iso(a)
                pt, qt = split_iso(b)
                pm, qm = split_iso(a * b)
                worst = max(
                    worst,
                    abs(pm - 2 * ps * pt) / scale,
                    abs(qm - 2 * qs * qt) / scale,
                )
        report(9, "worst algebra property defect", f"{worst:.3e}", worst <= tol)
