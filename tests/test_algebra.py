import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmin import algebra
from drmin.algebra import (
    DomainError,
    Kind,
    KindMismatchError,
    Scalar,
    ZeroDivisorError,
    ZeroOperandError,
    conj,
    exp_scalar,
    invert,
    is_zero_divisor,
    ln_scalar,
    modulus_sq,
)
from oracles import merge_split, split_iso

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).map(
    lambda x: 0.0 if abs(x) < 1e-100 else x
)
kinds = st.sampled_from([Kind.COMPLEX, Kind.PARA])


@st.composite
def scalars(draw, kind=None):
    k = kind if kind is not None else draw(kinds)
    return Scalar(draw(finite), draw(finite), k)


def close(a: Scalar, b: Scalar, tol=1e-12):
    scale = 1.0 + max(abs(a.re), abs(a.im), abs(b.re), abs(b.im))
    return abs(a.re - b.re) <= tol * scale and abs(a.im - b.im) <= tol * scale


class TestFieldOps:
    def test_para_null_product(self):
        a = Scalar(1, 1, Kind.PARA)
        b = Scalar(1, -1, Kind.PARA)
        assert (a * b).is_close(Scalar(0, 0, Kind.PARA))

    def test_complex_unit_square(self):
        i = Scalar(0.0, 1.0, Kind.COMPLEX)
        assert (i * i).is_close(Scalar(-1, 0, Kind.COMPLEX))

    def test_para_product(self):
        # (2 + tau)(3 + tau) = 6 + 2 tau + 3 tau + 1 = 7 + 5 tau
        out = Scalar(2, 1, Kind.PARA) * Scalar(3, 1, Kind.PARA)
        assert out.is_close(Scalar(7, 5, Kind.PARA))

    def test_kind_mismatch_raises(self):
        with pytest.raises(KindMismatchError):
            Scalar(1, 0, Kind.PARA) + Scalar(1, 0, Kind.COMPLEX)
        with pytest.raises(KindMismatchError):
            Scalar(1, 0, Kind.COMPLEX) * Scalar(1, 0, Kind.PARA)

    def test_real_coercion(self):
        assert (2 + Scalar(1, 1, Kind.PARA)).is_close(Scalar(3, 1, Kind.PARA))
        assert (Scalar(1, 1, Kind.COMPLEX) * 3).is_close(Scalar(3, 3, Kind.COMPLEX))

    @given(a=scalars(), b=scalars(), c=scalars())
    def test_ring_axioms(self, a, b, c):
        if not (a.kind is b.kind is c.kind):
            return
        assert close((a + b) + c, a + (b + c))
        assert close((a * b) * c, a * (b * c), tol=1e-12)
        assert close(a * (b + c), a * b + a * c, tol=1e-12)
        assert close(a * b, b * a)


class TestConj:
    def test_examples(self):
        assert conj(Scalar(0, 0.5, Kind.PARA)).is_close(Scalar(0, -0.5, Kind.PARA))
        assert conj(Scalar(3, 4, Kind.COMPLEX)).is_close(Scalar(3, -4, Kind.COMPLEX))
        s = Scalar(2, 1, Kind.PARA)
        assert (s * conj(s)).is_close(Scalar(3, 0, Kind.PARA))

    @given(s=scalars())
    def test_involution(self, s):
        assert conj(conj(s)) == s

    @given(a=scalars(), b=scalars())
    def test_automorphism(self, a, b):
        if a.kind is not b.kind:
            return
        assert close(conj(a * b), conj(a) * conj(b))


class TestModulus:
    def test_examples(self):
        assert modulus_sq(Scalar(1, 1, Kind.PARA)) == 0.0
        assert modulus_sq(Scalar(3, 4, Kind.COMPLEX)) == 25.0
        assert modulus_sq(Scalar(0, 1, Kind.PARA)) == -1.0

    @given(s=scalars())
    def test_equals_s_conj_s(self, s):
        prod = s * conj(s)
        scale = 1.0 + abs(prod.re)
        assert abs(prod.im) <= 1e-12 * scale
        assert abs(prod.re - modulus_sq(s)) <= 1e-12 * scale

    @given(a=scalars(), b=scalars())
    @example(a=Scalar(63.0, 64.890625, Kind.PARA), b=Scalar(91.0, 90.8984375, Kind.PARA))
    def test_multiplicative(self, a, b):
        if a.kind is not b.kind:
            return
        lhs = modulus_sq(a * b)
        rhs = modulus_sq(a) * modulus_sq(b)
        # the paracomplex modulus is a difference of squares, so its
        # rounding error scales with re^2 + im^2 of the factors, not |lhs|
        scale = 1.0 + (a.re**2 + a.im**2) * (b.re**2 + b.im**2)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestInvert:
    def test_zero_divisor_refused(self):
        with pytest.raises(ZeroDivisorError):
            invert(Scalar(1, 1, Kind.PARA))
        with pytest.raises(ZeroOperandError):
            invert(Scalar(0, 0, Kind.COMPLEX))

    def test_real_inverse(self):
        assert invert(Scalar(2, 0, Kind.PARA)).is_close(Scalar(0.5, 0, Kind.PARA))

    def test_para_inverse_formula(self):
        # inverse of 3 + tau is (3 - tau)/8
        out = invert(Scalar(3, 1, Kind.PARA))
        assert out.is_close(Scalar(3 / 8, -1 / 8, Kind.PARA))

    @given(s=scalars())
    def test_round_trip(self, s):
        if (s.re == 0 and s.im == 0) or is_zero_divisor(s):
            return
        if s.kind is Kind.PARA and abs(abs(s.re) - abs(s.im)) < 1e-6 * (1 + abs(s.re)):
            return  # too close to the null cone for a clean round trip
        prod = s * invert(s)
        assert close(prod, algebra.one(s.kind))

    def test_null_cone_band(self):
        assert is_zero_divisor(Scalar(1.0, 1.0 + 1e-14, Kind.PARA))
        assert is_zero_divisor(Scalar(-2.0, 2.0, Kind.PARA))
        assert not is_zero_divisor(Scalar(1.0, 0.9999, Kind.PARA))
        assert not is_zero_divisor(Scalar(0.0, 0.0, Kind.PARA))
        assert not is_zero_divisor(Scalar(1.0, 1.0, Kind.COMPLEX))


class TestSplit:
    def test_half_normalization(self):
        assert split_iso(Scalar(1, 1, Kind.PARA)) == (1.0, 0.0)
        assert split_iso(Scalar(1, 0, Kind.PARA)) == (0.5, 0.5)

    def test_wrong_kind(self):
        with pytest.raises(KindMismatchError):
            split_iso(Scalar(1, 0, Kind.COMPLEX))

    def test_product_rule(self):
        # with the 1/2 normalization products pick up a factor 2:
        # split(s t) = 2 * split(s) .* split(t)
        s = Scalar(2, 1, Kind.PARA)
        t = Scalar(3, -1, Kind.PARA)
        ps, qs = split_iso(s)
        pt, qt = split_iso(t)
        pp, qq = split_iso(s * t)
        assert abs(pp - 2 * ps * pt) <= 1e-12
        assert abs(qq - 2 * qs * qt) <= 1e-12

    @given(s=scalars(kind=Kind.PARA))
    def test_bijection(self, s):
        back = merge_split(*split_iso(s))
        # recomposition loses at most one rounding step per component
        scale = 1.0 + abs(s.re) + abs(s.im)
        assert abs(back.re - s.re) <= 1e-15 * scale
        assert abs(back.im - s.im) <= 1e-15 * scale

    @given(s=scalars(kind=Kind.PARA), t=scalars(kind=Kind.PARA))
    def test_additive_and_scaled_multiplicative(self, s, t):
        ps, qs = split_iso(s)
        pt, qt = split_iso(t)
        pa, qa = split_iso(s + t)
        scale = 1.0 + abs(pa) + abs(qa)
        assert abs(pa - (ps + pt)) <= 1e-12 * scale
        assert abs(qa - (qs + qt)) <= 1e-12 * scale
        pm, qm = split_iso(s * t)
        scale = 1.0 + abs(pm) + abs(qm)
        assert abs(pm - 2 * ps * pt) <= 1e-12 * scale
        assert abs(qm - 2 * qs * qt) <= 1e-12 * scale


class TestExpLn:
    def test_exp_zero(self):
        for kind in Kind:
            assert exp_scalar(algebra.zero(kind)).is_close(algebra.one(kind))

    def test_para_exp_inverse_pair(self):
        a = exp_scalar(Scalar(0, 0.7, Kind.PARA))
        b = exp_scalar(Scalar(0, -0.7, Kind.PARA))
        assert close(a * b, algebra.one(Kind.PARA))

    def test_para_ln_round_trip(self):
        s = Scalar(0.3, 0.1, Kind.PARA)
        assert close(ln_scalar(exp_scalar(s)), s)

    def test_para_ln_domain(self):
        with pytest.raises(DomainError):
            ln_scalar(Scalar(0.1, 0.2, Kind.PARA))
        with pytest.raises(DomainError):
            ln_scalar(Scalar(-1.0, 0.0, Kind.PARA))
        with pytest.raises(DomainError):
            ln_scalar(Scalar(0, 0, Kind.COMPLEX))

    def test_complex_matches_cmath(self):
        s = Scalar(0.5, -1.2, Kind.COMPLEX)
        import cmath

        w = cmath.log(complex(0.5, -1.2))
        assert close(ln_scalar(s), Scalar(w.real, w.imag, Kind.COMPLEX))

    @settings(max_examples=50)
    @given(
        re=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        im=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        kind=kinds,
    )
    def test_exp_ln_round_trip(self, re, im, kind):
        s = Scalar(re, im, kind)
        w = exp_scalar(s)
        if kind is Kind.COMPLEX and abs(im) > math.pi - 0.1:
            return  # principal branch cut
        back = ln_scalar(w)
        assert close(back, s, tol=1e-10)
