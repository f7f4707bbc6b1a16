"""The two 4-dimensional Lorentzian solvable Lie-group models and their metric.

Both models live on the global chart (x, y, z, t).  The first-kind model
S41 puts the negative metric direction on the t-axis frame vector; the
second-kind model S43 puts it on the central z-direction.  This module
holds the description of the geometry that verify reads:

* the coordinate metric tensor, at real or complex points,
* Christoffel symbols contracted with a symmetric tensor, from complex-step metric derivatives,
* the signed conformal density, the frame signature's quadratic form.

The other two descriptions sit beside their one reader: the orthonormal
left-invariant frame (matrix A) in synthesis, and its exact connection
structure constants (the L-table) in weierstrass.  The frame connections
that set the L-table against these symbols are test code, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Kind


class SpaceKind(Enum):
    FIRST = "S41"
    SECOND = "S43"


@dataclass(frozen=True)
class Point:
    x: float
    y: float
    z: float
    t: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.t], dtype=float)

    def __array__(self, dtype=None, copy=None):
        return self.as_array() if dtype is None else self.as_array().astype(dtype)


@dataclass(frozen=True)
class SpaceModel:
    kind: SpaceKind
    c: float = 1.0

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def signature(self) -> tuple[int, int, int, int]:
        """Frame-vector signs eps_i: e4 is timelike in S41, e3 in S43."""
        if self.kind is SpaceKind.FIRST:
            return (1, 1, 1, -1)
        return (1, 1, -1, 1)


def metric_at(s: SpaceModel, p) -> np.ndarray:
    """Coordinate metric tensor in (x,y,z,t): shape (..., 4, 4), complex for complex points."""
    p = np.asarray(p, dtype=complex if np.iscomplexobj(p) else float)
    c = s.c
    et = np.exp(-p[..., 3])
    e2t = np.exp(-2.0 * p[..., 3])
    # the squared 1-form dz + a*dx + b*dy
    a = 0.5 * c * p[..., 1]
    b = -0.5 * c * p[..., 0]
    s3 = 1.0 if s.kind is SpaceKind.FIRST else -1.0
    s4 = -1.0 if s.kind is SpaceKind.FIRST else 1.0
    g = np.zeros(p.shape[:-1] + (4, 4), dtype=p.dtype)
    g[..., 0, 0] = et + s3 * e2t * a * a
    g[..., 1, 1] = et + s3 * e2t * b * b
    g[..., 2, 2] = s3 * e2t
    g[..., 3, 3] = s4
    g[..., 0, 1] = g[..., 1, 0] = s3 * e2t * a * b
    g[..., 0, 2] = g[..., 2, 0] = s3 * e2t * a
    g[..., 1, 2] = g[..., 2, 1] = s3 * e2t * b
    return g


# the metric is analytic: Im g(p + i*h*e_a) / h is d_a g to round-off for any tiny h
COMPLEX_STEP = 1e-20


def _metric_and_gradient(s: SpaceModel, p) -> tuple[np.ndarray, np.ndarray]:
    """The metric at p (real parts) and dg[..., a, i, j] = d_a g_ij, from one complex-step call."""
    with np.errstate(invalid="ignore"):  # complex exp warns on NaN where real exp is silent
        g = metric_at(s, np.asarray(p, dtype=float)[..., None, :] + 1j * COMPLEX_STEP * np.eye(4))
    return g[..., 0, :, :].real, g.imag / COMPLEX_STEP


def christoffel_at(s: SpaceModel, p, q) -> np.ndarray:
    """Gamma^i_{jl}(p) q^{jl} for symmetric q[..., j, l], from the metric alone.

    The Koszul formula contracted with q: Gamma(q)^i = g^{im} w_m with
    w_m = sum_j (d_j g q)_{mj} - (1/2) <d_m g, q> (<,> the Frobenius
    product), complex-step metric derivatives and one batched
    solve for g^{im}; independent of the frame and the L-table.
    """
    g, dg = _metric_and_gradient(s, p)
    n = dg.shape[:-3]
    q = np.reshape(q, n + (16, 1))
    # g and q are symmetric: sum_{j,l} d_j g_ml q_lj reads dg as a (16, 4) matrix over ((j, l), m)
    w = np.swapaxes(dg.reshape(n + (16, 4)), -1, -2) @ q - 0.5 * (dg.reshape(n + (4, 16)) @ q)
    try:
        return np.linalg.solve(g, w)[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular metric (an overflowing node) reads NaN
        bad = ~(np.abs(np.linalg.det(g)) > 0.0)[..., None, None]  # det 0 or NaN: a zero pivot
        return np.linalg.solve(np.where(bad, np.eye(4), g), np.where(bad, np.nan, w))[..., 0]


def conformal_density(s: SpaceModel, kind: Kind, psi) -> np.ndarray:
    """sum_k eps_k |psi_k|^2 (condition_i) over arrays, from the (re, im) pairs of psi_1..psi_4."""
    eps = s.signature
    out = 0.0
    with np.errstate(all="ignore"):
        for k, (re, im) in enumerate(psi):
            out = out + eps[k] * (re * re - kind.sigma * im * im)
    return out
