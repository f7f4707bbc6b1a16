import math
import random

import numpy as np
import pytest

from drmin.spaces import (
    COMPLEX_STEP,
    Point,
    SpaceKind,
    SpaceModel,
    _metric_and_gradient,
    christoffel_at,
    metric_at,
)
from drmin.synthesis import frame_matrix
from drmin.weierstrass import l_table
from oracles import (
    christoffel_by_axis,
    frame_connection,
    frame_connection_via_christoffel,
    lie_bracket_frame,
    metric_gradient_by_axis,
    metric_gradient_by_complex_step,
    metric_gradient_exact,
)

S41 = SpaceModel(SpaceKind.FIRST, 1.0)
S43 = SpaceModel(SpaceKind.SECOND, 1.0)
ORIGIN = Point(0.0, 0.0, 0.0, 0.0)


def random_points(rng, n):
    return [
        Point(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-2, 2))
        for _ in range(n)
    ]


def random_models(rng, n):
    out = []
    for _ in range(n):
        c = rng.uniform(-2, 2)
        out.append(SpaceModel(rng.choice([SpaceKind.FIRST, SpaceKind.SECOND]), c))
    return out


@pytest.mark.parametrize("kind", list(SpaceKind))
def test_c_defaults_to_one(kind):
    assert SpaceModel(kind).c == 1.0
    assert SpaceModel(kind) == SpaceModel(kind, 1.0)


class TestMetric:
    def test_first_kind_origin(self):
        assert np.allclose(metric_at(S41, ORIGIN), np.diag([1, 1, 1, -1]))

    def test_first_kind_on_t_axis(self):
        t = 0.7
        g = metric_at(S41, Point(0, 0, 0, t))
        assert np.allclose(g, np.diag([math.exp(-t), math.exp(-t), math.exp(-2 * t), -1]))

    def test_second_kind_origin(self):
        assert np.allclose(metric_at(S43, ORIGIN), np.diag([1, 1, -1, 1]))

    def test_dtype_follows_the_points(self):
        # complex points give the complex metric whose real part is the metric;
        # integer and float points give float64
        rng = np.random.default_rng(3)
        p = rng.uniform([-3, -3, -3, -2], [3, 3, 3, 2], size=(50, 4))
        for s in (S41, S43, SpaceModel(SpaceKind.FIRST, -1.3)):
            g = metric_at(s, p + 1j * COMPLEX_STEP)
            assert g.dtype == np.complex128
            want = metric_at(s, p)
            assert_within_metric_bound(g.real, want)
            assert want.dtype == np.float64
            assert metric_at(s, [1, 2, 3, 0]).dtype == np.float64
            assert metric_at(s, np.arange(8).reshape(2, 4)).dtype == np.float64
            assert metric_at(s, ORIGIN).dtype == np.float64

    def test_cross_terms(self):
        # dz couples to dx and dy away from the z-axis
        g = metric_at(S41, Point(2.0, 3.0, 0.0, 0.0))
        assert g[0, 2] == pytest.approx(0.5 * 3.0)  # (c/2) y
        assert g[1, 2] == pytest.approx(-0.5 * 2.0)  # -(c/2) x
        assert np.allclose(g, g.T)


class TestFrame:
    def test_identity_at_origin(self):
        assert np.allclose(frame_matrix(S41, ORIGIN), np.eye(4))
        assert np.allclose(frame_matrix(S43, ORIGIN), np.eye(4))

    def test_central_column_entries(self):
        A = frame_matrix(S41, Point(2.0, 3.0, 0.0, 0.0))
        assert A[2, 0] == pytest.approx(-1.5)
        assert A[2, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("rows", [(3,), (0, 1), (2,), (0, 1, 2, 3), (3, 1)])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
    def test_rows_are_rows_of_the_full_frame(self, shape, rows):
        # the march asks for the rows of one level: each is bit-equal to that
        # row of the full frame, in the order asked
        rng = random.Random(17)
        pts = np.array([p.as_array() for p in random_points(rng, math.prod(shape))])
        pts = pts.reshape(shape + (4,))
        for s in (S41, S43, SpaceModel(SpaceKind.FIRST, -1.3)):
            got = frame_matrix(s, pts, rows)
            assert got.shape == shape + (len(rows), 4)
            assert got.tobytes() == frame_matrix(s, pts)[..., list(rows), :].tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_orthonormality_random(self, seed):
        rng = random.Random(seed)
        for s in random_models(rng, 25):
            eps = np.diag(s.signature)
            for p in random_points(rng, 40):
                A = frame_matrix(s, p)
                G = metric_at(s, p)
                assert np.abs(A.T @ G @ A - eps).max() <= 1e-12 * max(1.0, np.abs(G).max())


class TestLTable:
    def test_signature_flip_entries(self):
        assert l_table(S41).get((1, 1, 4), 0.0) == -1.0
        assert l_table(S43).get((1, 1, 4), 0.0) == 1.0

    def test_last_frame_direction_parallel(self):
        for s in (S41, S43):
            for j in range(1, 5):
                for k in range(1, 5):
                    assert l_table(s).get((4, j, k), 0.0) == 0.0

    def test_c_scaling(self):
        s = SpaceModel(SpaceKind.FIRST, -1.7)
        assert l_table(s).get((1, 2, 3), 0.0) == -1.7
        assert l_table(s).get((3, 3, 4), 0.0) == -2.0

    def test_connection_examples(self):
        assert np.allclose(frame_connection(S41, 1, 1), [0, 0, 0, -0.5])
        assert np.allclose(frame_connection(S43, 3, 3), [0, 0, 0, -1.0])

    def test_connection_is_half_l(self):
        for s in (S41, S43, SpaceModel(SpaceKind.FIRST, 0.0)):
            tab = l_table(s)
            for i in range(1, 5):
                for j in range(1, 5):
                    vec = frame_connection(s, i, j)
                    for k in range(1, 5):
                        assert vec[k - 1] == 0.5 * tab.get((i, j, k), 0.0)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            frame_connection(S41, 0, 1)


class TestConnectionStructure:
    BRACKETS = {
        # [e1,e2] = c e3, [e1,e4] = -e1/2, [e2,e4] = -e2/2, [e3,e4] = -e3
        (1, 2): lambda c: np.array([0, 0, c, 0]),
        (1, 3): lambda c: np.zeros(4),
        (2, 3): lambda c: np.zeros(4),
        (1, 4): lambda c: np.array([-0.5, 0, 0, 0]),
        (2, 4): lambda c: np.array([0, -0.5, 0, 0]),
        (3, 4): lambda c: np.array([0, 0, -1.0, 0]),
    }

    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    @pytest.mark.parametrize("c", [1.0, -0.5, 0.0])
    def test_torsion_free(self, space_kind, c):
        s = SpaceModel(space_kind, c)
        for (i, j), expected in self.BRACKETS.items():
            assert np.allclose(lie_bracket_frame(s, i, j), expected(c))

    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    def test_metric_parallel(self, space_kind):
        # <nabla_ei ej, ek> + <ej, nabla_ei ek> = 0 with frame inner
        # product diag(signature)
        s = SpaceModel(space_kind, 1.3)
        eps = s.signature
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    lhs = eps[k - 1] * frame_connection(s, i, j)[k - 1]
                    rhs = eps[j - 1] * frame_connection(s, i, k)[j - 1]
                    assert lhs + rhs == pytest.approx(0.0, abs=1e-14)


class TestChristoffelOracle:
    def test_symmetry(self):
        rng = random.Random(2)
        for s in (S41, S43):
            for p in random_points(rng, 5):
                gamma = christoffel_by_axis(s, p)
                assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() <= 1e-9

    def test_known_entry_at_origin(self):
        # Gamma^t_xx = -1/2 in the first-kind model, from d_t g_xx = -e^{-t}
        gamma = christoffel_by_axis(S41, ORIGIN)
        assert gamma[3, 0, 0] == pytest.approx(-0.5, abs=1e-8)

    def test_metric_compatibility(self):
        # d_a g_jl = Gamma^m_aj g_ml + Gamma^m_al g_jm
        rng = random.Random(4)
        for s in (S41, S43):
            for p in random_points(rng, 3):
                g = metric_at(s, p)
                dg = metric_gradient_by_axis(s, p)
                gamma = christoffel_by_axis(s, p)
                rhs = np.einsum("maj,ml->ajl", gamma, g) + np.einsum(
                    "mal,jm->ajl", gamma, g
                )
                assert np.abs(dg - rhs).max() <= 1e-6

    def test_frame_change_consistency(self):
        rng = random.Random(6)
        for s in random_models(rng, 10):
            for p in random_points(rng, 10):
                for i in range(1, 5):
                    for j in range(1, 5):
                        via = frame_connection_via_christoffel(s, p, i, j)
                        exact = frame_connection(s, i, j)
                        assert np.abs(via - exact).max() <= 1e-6


class TestPointArrays:
    def test_batched_equals_pointwise(self):
        rng = random.Random(11)
        pts = random_points(rng, 6)
        batch = np.array([p.as_array() for p in pts]).reshape(2, 3, 4)
        for s in (S41, S43, SpaceModel(SpaceKind.FIRST, -1.3)):
            for fn in (metric_at, frame_matrix, metric_gradient_by_axis, christoffel_by_axis):
                got = fn(s, batch).reshape((6,) + fn(s, ORIGIN).shape)
                for k, p in enumerate(pts):
                    assert np.allclose(got[k], fn(s, p), rtol=1e-13, atol=1e-13), fn.__name__

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
    def test_gradient_batch_equals_per_axis_loop(self, shape):
        # the four complex steps in one call take the same arithmetic as one
        # complex metric call per axis; the metric is the real part of the x step
        rng = random.Random(13)
        pts = np.array([p.as_array() for p in random_points(rng, math.prod(shape))])
        pts = pts.reshape(shape + (4,))
        for s in (S41, S43, SpaceModel(SpaceKind.FIRST, -1.3)):
            g, dg = _metric_and_gradient(s, pts)
            along_x = metric_at(s, pts + [1j * COMPLEX_STEP, 0, 0, 0])
            assert g.tobytes() == along_x.real.tobytes()
            assert dg.tobytes() == metric_gradient_by_complex_step(s, pts).tobytes()


EPS = np.finfo(float).eps
# the real part of the complex metric rounds differently where numpy's complex
# exp differs from its real exp (about 8 % of points)
METRIC_ULPS = 4
# the complex-step gradient against the hand-derived one, per point, in units
# of eps times the point's largest |d_a g_ij|
GRADIENT_ULPS = 8
# the central-difference cross-check, relative to the same scale
CENTRAL_DIFFERENCE_REL = 1e-8


def assert_within_metric_bound(got, want):
    """Each point's metric within METRIC_ULPS * eps of its largest entry."""
    scale = np.abs(want).max(axis=(-2, -1))
    assert (np.abs(got - want).max(axis=(-2, -1)) <= METRIC_ULPS * EPS * scale).all()


class TestMetricGradient:
    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    @pytest.mark.parametrize("c", [1.0, -1.3])
    def test_routes_match_hand_derived_gradient(self, space_kind, c):
        s = SpaceModel(space_kind, c)
        p = np.random.default_rng(23).uniform([-3, -3, -3, -2], [3, 3, 3, 2], size=(4000, 4))
        g, dg = _metric_and_gradient(s, p)
        exact = metric_gradient_exact(s, p)
        scale = np.abs(exact).max(axis=(-3, -2, -1))
        assert (scale > 0).all()

        def worst(got):
            return np.abs(got - exact).max(axis=(-3, -2, -1)) / scale

        assert (worst(dg) <= GRADIENT_ULPS * EPS).all()
        assert (worst(metric_gradient_by_axis(s, p)) <= CENTRAL_DIFFERENCE_REL).all()
        assert_within_metric_bound(g, metric_at(s, p))

    def test_known_gradient_at_origin(self):
        # d_t g_xx = -e^{-t}, d_y g_xz = c/2 in the first-kind model
        _, dg = _metric_and_gradient(S41, ORIGIN)
        assert dg[3, 0, 0] == -1.0
        assert dg[1, 0, 2] == dg[1, 2, 0] == 0.5
        assert (dg[2] == 0.0).all()  # nothing depends on z


def contraction_scale(s, p, q):
    """Per point, max_i of (1/2) sum |g^im| |Koszul term_mjl| |q^jl| from the full-tensor oracle.

    The absolute value of each product the oracle sums, so the rounding of
    both routes (inverse and einsum there, contraction and solve here) is
    a small multiple of eps times it.
    """
    dg = metric_gradient_by_complex_step(s, p)
    term = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    ginv = np.abs(np.linalg.inv(metric_at(s, p)))
    return 0.5 * np.einsum("...im,...mjl,...jl->...i", ginv, np.abs(term), np.abs(q)).max(axis=-1)


class TestContractedChristoffel:
    # the stated bound on the package's contraction against the full-tensor oracle
    ULPS = 8

    def assert_near_oracle(self, s, p, q):
        got = christoffel_at(s, p, q)
        want = np.einsum("...ijl,...jl->...i", christoffel_by_axis(s, p), q)
        assert got.shape == want.shape
        bound = self.ULPS * np.finfo(float).eps * contraction_scale(s, p, q)
        assert (np.abs(got - want).max(axis=-1) <= bound).all()

    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    @pytest.mark.parametrize("c", [1.0, -1.3])
    def test_batched_and_pointwise_match_full_tensor(self, space_kind, c):
        s = SpaceModel(space_kind, c)
        rng = random.Random(19)
        pts = np.array([p.as_array() for p in random_points(rng, 60)]).reshape(10, 6, 4)
        m = np.random.default_rng(19).normal(size=(10, 6, 4, 4))
        q = m + np.swapaxes(m, -1, -2)
        self.assert_near_oracle(s, pts, q)
        for k in np.ndindex(pts.shape[:-1]):
            self.assert_near_oracle(s, pts[k], q[k])

    def test_known_contraction_at_origin(self):
        # Gamma^t(e_x, e_x) = -1/2 in the first-kind model
        q = np.zeros((4, 4))
        q[0, 0] = 1.0
        assert christoffel_at(S41, ORIGIN, q) == pytest.approx([0, 0, 0, -0.5], abs=1e-8)
