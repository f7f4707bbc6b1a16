import math
import random

import numpy as np
import pytest

from drmin.spaces import (
    Point,
    SpaceKind,
    SpaceModel,
    christoffel_at,
    frame_connection,
    frame_connection_via_christoffel,
    frame_matrix,
    l_entry,
    l_table,
    lie_bracket_frame,
    metric_at,
    metric_gradient_at,
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


class TestMetric:
    def test_first_kind_origin(self):
        assert np.allclose(metric_at(S41, ORIGIN), np.diag([1, 1, 1, -1]))

    def test_first_kind_on_t_axis(self):
        t = 0.7
        g = metric_at(S41, Point(0, 0, 0, t))
        assert np.allclose(g, np.diag([math.exp(-t), math.exp(-t), math.exp(-2 * t), -1]))

    def test_second_kind_origin(self):
        assert np.allclose(metric_at(S43, ORIGIN), np.diag([1, 1, -1, 1]))

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
        assert l_entry(S41, 1, 1, 4) == -1.0
        assert l_entry(S43, 1, 1, 4) == 1.0

    def test_last_frame_direction_parallel(self):
        for s in (S41, S43):
            for j in range(1, 5):
                for k in range(1, 5):
                    assert l_entry(s, 4, j, k) == 0.0

    def test_c_scaling(self):
        s = SpaceModel(SpaceKind.FIRST, -1.7)
        assert l_entry(s, 1, 2, 3) == -1.7
        assert l_entry(s, 3, 3, 4) == -2.0

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
                gamma = christoffel_at(s, p)
                assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() <= 1e-9

    def test_known_entry_at_origin(self):
        # Gamma^t_xx = -1/2 in the first-kind model, from d_t g_xx = -e^{-t}
        gamma = christoffel_at(S41, ORIGIN)
        assert gamma[3, 0, 0] == pytest.approx(-0.5, abs=1e-8)

    def test_metric_compatibility(self):
        # d_a g_jl = Gamma^m_aj g_ml + Gamma^m_al g_jm
        rng = random.Random(4)
        for s in (S41, S43):
            for p in random_points(rng, 3):
                g = metric_at(s, p)
                dg = metric_gradient_at(s, p)
                gamma = christoffel_at(s, p)
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
            for fn in (metric_at, frame_matrix, metric_gradient_at, christoffel_at):
                got = fn(s, batch).reshape((6,) + fn(s, ORIGIN).shape)
                for k, p in enumerate(pts):
                    assert np.allclose(got[k], fn(s, p), rtol=1e-13, atol=1e-13), fn.__name__
