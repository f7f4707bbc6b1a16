"""Two-dimensional commutative scalar algebras over the reals.

The whole pipeline is generic over the algebra kind: the complex numbers
(unit i, i^2 = -1) drive spacelike surfaces, the paracomplex (split-complex)
numbers (unit tau, tau^2 = +1) drive timelike ones.  Paracomplex numbers
have zero divisors on the lines re = +/- im, which the division and
logarithm routines must refuse.

`Scalar` is the per-node algebra.  The functions at the end of the module
are its array twins: the same operations on (re, im) pairs of float
arrays, term for term in the order `Scalar` uses, so that rounding,
signed zeros, inf and NaN come out as they do node by node.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
        raise ZeroDivisorError(f"{s.re} + {s.kind.unit_symbol}*{s.im} has vanishing norm")
    return Scalar(s.re / m, -s.im / m, s.kind)


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


# -- array twins ------------------------------------------------------------
# A value is an (re, im) pair of float arrays.  None of these raise; the
# failure masks they return are where the Scalar routine may raise, and
# callers settle those nodes with the Scalar routine itself.


def mul_arrays(a, b, sigma: float):
    """a * b, associated as in Scalar.__mul__ (a real factor x is (x, 0.0)).

    sigma is +/-1, so (sigma * a1) * b1 is exactly +/-(a1 * b1) and the
    sign folds into the sum; only the sign bit of a NaN may differ.
    """
    re = (np.subtract if sigma < 0 else np.add)(a[0] * b[0], a[1] * b[1])
    return re, a[0] * b[1] + a[1] * b[0]


def invert_arrays(a, kind: Kind):
    """(1/a, mask of the nodes where invert raises)."""
    re, im = a
    fails = (re == 0.0) & (im == 0.0)
    if kind is Kind.PARA:
        band = ZERO_DIVISOR_RTOL * (1.0 + np.abs(re) + np.abs(im))
        tiny = (np.abs(re) <= band) & (np.abs(im) <= band)
        fails |= ~tiny & ((np.abs(re - im) <= band) | (np.abs(re + im) <= band))
    m = re * re - kind.sigma * im * im
    fails |= m == 0.0
    return (re / m, -im / m), fails


def _complex_array(a) -> np.ndarray:
    # set the parts one by one: re + 1j*im would turn an imaginary -0.0
    # into +0.0 and move ln across its branch cut
    z = np.empty(np.shape(a[0]), dtype=complex)
    z.real = a[0]
    z.imag = a[1]
    return z


def _lift_arrays(fn):
    # fn is a numpy ufunc, applied as in _complex_lift and _para_lift
    def lifted(a, kind: Kind):
        if kind is Kind.COMPLEX:
            w = fn(_complex_array(a))
            return w.real, w.imag
        fp, fq = fn(a[0] + a[1]), fn(a[0] - a[1])
        return 0.5 * (fp + fq), 0.5 * (fp - fq)

    return lifted


def _exp_arrays(a, kind: Kind):
    if kind is Kind.COMPLEX:
        w = np.exp(_complex_array(a))
        return w.real, w.imag
    ea = np.exp(a[0])
    return ea * np.cosh(a[1]), ea * np.sinh(a[1])


# Out of its domain each function gives inf or NaN here, where the Scalar
# routine raises.
CALL_ARRAYS = {
    "exp": _exp_arrays,
    "ln": _lift_arrays(np.log),
    "sin": _lift_arrays(np.sin),
    "cos": _lift_arrays(np.cos),
    "sinh": _lift_arrays(np.sinh),
    "cosh": _lift_arrays(np.cosh),
}
