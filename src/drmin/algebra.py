"""Two-dimensional commutative scalar algebras over the reals.

The whole pipeline is generic over the algebra kind: the complex numbers
(unit i, i^2 = -1) drive spacelike surfaces, the paracomplex (split-complex)
numbers (unit tau, tau^2 = +1) drive timelike ones.  Paracomplex numbers
have zero divisors on the lines re = +/- im, which the division and
logarithm routines must refuse.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

ZERO_DIVISOR_RTOL = 1e-12


class AlgebraError(Exception):
    """Base class for scalar-algebra failures."""


class KindMismatchError(AlgebraError):
    """Binary operation on scalars of different kinds."""


class ZeroDivisorError(AlgebraError):
    """Paracomplex division/inversion by an element of the null cone."""


class ZeroOperandError(AlgebraError):
    """Inversion of the zero scalar."""


class DomainError(AlgebraError):
    """Argument outside the domain of a transcendental function."""


class Kind(Enum):
    COMPLEX = "complex"
    PARA = "para"

    @property
    def sigma(self) -> float:
        """Square of the imaginary unit: -1 for complex, +1 for para."""
        return -1.0 if self is Kind.COMPLEX else 1.0

    @property
    def unit_symbol(self) -> str:
        return "i" if self is Kind.COMPLEX else "tau"


@dataclass(frozen=True, slots=True)
class Scalar:
    re: float
    im: float
    kind: Kind

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.kind is not self.kind:
                raise KindMismatchError(
                    f"cannot combine {self.kind.value} and {other.kind.value} scalars"
                )
            return other
        if isinstance(other, (int, float)):
            return Scalar(float(other), 0.0, self.kind)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im, self.kind)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im, self.kind)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(o.re - self.re, o.im - self.im, self.kind)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        sigma = self.kind.sigma
        return Scalar(
            self.re * o.re + sigma * self.im * o.im,
            self.re * o.im + self.im * o.re,
            self.kind,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * invert(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * invert(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im, self.kind)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r}, {self.kind.value})"

    def is_close(self, other: "Scalar", tol: float = 1e-12) -> bool:
        return (
            self.kind is other.kind
            and abs(self.re - other.re) <= tol
            and abs(self.im - other.im) <= tol
        )


def one(kind: Kind) -> Scalar:
    return Scalar(1.0, 0.0, kind)


def zero(kind: Kind) -> Scalar:
    return Scalar(0.0, 0.0, kind)


def unit(kind: Kind) -> Scalar:
    """The imaginary unit of the algebra (i or tau)."""
    return Scalar(0.0, 1.0, kind)


def conj(s: Scalar) -> Scalar:
    return Scalar(s.re, -s.im, s.kind)


def modulus_sq(s: Scalar) -> float:
    """re^2 - sigma*im^2: the (indefinite, for para) squared norm s*conj(s)."""
    return s.re * s.re - s.kind.sigma * s.im * s.im


def is_zero_divisor(s: Scalar) -> bool:
    """Paracomplex null-cone test with a scale-aware absolute band."""
    if s.kind is not Kind.PARA:
        return False
    band = ZERO_DIVISOR_RTOL * (1.0 + abs(s.re) + abs(s.im))
    if abs(s.re) <= band and abs(s.im) <= band:
        return False  # zero itself, reported separately
    return abs(s.re - s.im) <= band or abs(s.re + s.im) <= band


def invert(s: Scalar) -> Scalar:
    if s.re == 0.0 and s.im == 0.0:
        raise ZeroOperandError("cannot invert zero")
    if s.kind is Kind.PARA and is_zero_divisor(s):
        raise ZeroDivisorError(f"{s.re} + tau*{s.im} lies on the null cone")
    m = modulus_sq(s)
    if m == 0.0:
        raise ZeroDivisorError(f"{s.re} + tau*{s.im} has vanishing norm")
    return Scalar(s.re / m, -s.im / m, s.kind)


def split_iso(s: Scalar) -> tuple[float, float]:
    """Map a + tau*b to (a+b, a-b)/2, the split coordinates on R (+) R.

    With this normalization products obey
    split(s*t) = 2 * (split(s) .* split(t)) componentwise; the unscaled
    pair (a+b, a-b) is the plain ring isomorphism.
    """
    if s.kind is not Kind.PARA:
        raise KindMismatchError("split_iso is defined on paracomplex scalars only")
    return (0.5 * (s.re + s.im), 0.5 * (s.re - s.im))


def merge_split(p: float, q: float) -> Scalar:
    """Inverse of split_iso: (p, q) -> (p+q) + tau*(p-q)."""
    return Scalar(p + q, p - q, Kind.PARA)


def _para_lift(fn, s: Scalar) -> Scalar:
    # Apply a real-analytic function componentwise in unscaled split
    # coordinates (a+b, a-b); this is the unique algebra-consistent lift.
    p = s.re + s.im
    q = s.re - s.im
    fp, fq = fn(p), fn(q)
    return Scalar(0.5 * (fp + fq), 0.5 * (fp - fq), Kind.PARA)


def _complex_lift(fn, s: Scalar) -> Scalar:
    w = fn(complex(s.re, s.im))
    return Scalar(w.real, w.imag, Kind.COMPLEX)


def exp_scalar(s: Scalar) -> Scalar:
    if s.kind is Kind.COMPLEX:
        return _complex_lift(cmath.exp, s)
    # exp(a + tau b) = e^a (cosh b + tau sinh b)
    ea = math.exp(s.re)
    return Scalar(ea * math.cosh(s.im), ea * math.sinh(s.im), Kind.PARA)


def ln_scalar(s: Scalar) -> Scalar:
    if s.kind is Kind.COMPLEX:
        if s.re == 0.0 and s.im == 0.0:
            raise DomainError("ln(0) is undefined")
        return _complex_lift(cmath.log, s)
    # Restrict to the cone re > |im|, where both split components are
    # positive and exp/ln are mutually inverse.
    if not s.re > abs(s.im):
        raise DomainError(
            f"paracomplex ln needs re > |im|, got {s.re} + tau*{s.im}"
        )
    return _para_lift(math.log, s)


def sin_scalar(s: Scalar) -> Scalar:
    if s.kind is Kind.COMPLEX:
        return _complex_lift(cmath.sin, s)
    return _para_lift(math.sin, s)


def cos_scalar(s: Scalar) -> Scalar:
    if s.kind is Kind.COMPLEX:
        return _complex_lift(cmath.cos, s)
    return _para_lift(math.cos, s)


def sinh_scalar(s: Scalar) -> Scalar:
    if s.kind is Kind.COMPLEX:
        return _complex_lift(cmath.sinh, s)
    return _para_lift(math.sinh, s)


def cosh_scalar(s: Scalar) -> Scalar:
    if s.kind is Kind.COMPLEX:
        return _complex_lift(cmath.cosh, s)
    return _para_lift(math.cosh, s)
