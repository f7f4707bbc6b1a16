"""The two 4-dimensional Lorentzian solvable Lie-group models.

Both models live on the global chart (x, y, z, t).  The first-kind model
S41 puts the negative metric direction on the t-axis frame vector; the
second-kind model S43 puts it on the central z-direction.  Each model
ships three mutually checking descriptions of its geometry:

* the coordinate metric tensor,
* the orthonormal left-invariant frame (matrix A) with its exact
  connection structure constants (the L-table),
* a finite-difference Christoffel oracle built only from the metric,
  independent of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


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
    """Coordinate metric tensor in (x,y,z,t): shape (..., 4, 4) for points (..., 4)."""
    p = np.asarray(p, dtype=float)
    c = s.c
    et = np.exp(-p[..., 3])
    e2t = np.exp(-2.0 * p[..., 3])
    # the squared 1-form dz + a*dx + b*dy
    a = 0.5 * c * p[..., 1]
    b = -0.5 * c * p[..., 0]
    s3 = 1.0 if s.kind is SpaceKind.FIRST else -1.0
    s4 = -1.0 if s.kind is SpaceKind.FIRST else 1.0
    g = np.zeros(p.shape[:-1] + (4, 4))
    g[..., 0, 0] = et + s3 * e2t * a * a
    g[..., 1, 1] = et + s3 * e2t * b * b
    g[..., 2, 2] = s3 * e2t
    g[..., 3, 3] = s4
    g[..., 0, 1] = g[..., 1, 0] = s3 * e2t * a * b
    g[..., 0, 2] = g[..., 2, 0] = s3 * e2t * a
    g[..., 1, 2] = g[..., 2, 1] = s3 * e2t * b
    return g


def frame_matrix(s: SpaceModel, p) -> np.ndarray:
    """Columns are the coordinate components of the frame e1..e4 at p.

    Points of shape (..., 4) give matrices of shape (..., 4, 4).
    """
    p = np.asarray(p, dtype=float)
    c = s.c
    eh = np.exp(0.5 * p[..., 3])
    A = np.zeros(p.shape[:-1] + (4, 4))
    A[..., 0, 0] = eh
    A[..., 1, 1] = eh
    A[..., 2, 0] = -0.5 * c * eh * p[..., 1]
    A[..., 2, 1] = 0.5 * c * eh * p[..., 0]
    A[..., 2, 2] = np.exp(p[..., 3])
    A[..., 3, 3] = 1.0
    return A


def l_table(s: SpaceModel) -> dict[tuple[int, int, int], float]:
    """Nonzero connection structure constants (i, j, k) -> L^k_ij.

    Defined by nabla_{e_i} e_j = (1/2) sum_k L^k_ij e_k; indices 1-based.
    """
    c = s.c
    if s.kind is SpaceKind.FIRST:
        return {
            (1, 1, 4): -1.0, (1, 2, 3): c, (1, 3, 2): -c, (1, 4, 1): -1.0,
            (2, 1, 3): -c, (2, 2, 4): -1.0, (2, 3, 1): c, (2, 4, 2): -1.0,
            (3, 1, 2): -c, (3, 2, 1): c, (3, 3, 4): -2.0, (3, 4, 3): -2.0,
        }
    return {
        (1, 1, 4): 1.0, (1, 2, 3): c, (1, 3, 2): c, (1, 4, 1): -1.0,
        (2, 1, 3): -c, (2, 2, 4): 1.0, (2, 3, 1): -c, (2, 4, 2): -1.0,
        (3, 1, 2): c, (3, 2, 1): -c, (3, 3, 4): -2.0, (3, 4, 3): -2.0,
    }


def l_entry(s: SpaceModel, i: int, j: int, k: int) -> float:
    return l_table(s).get((i, j, k), 0.0)


def frame_connection(s: SpaceModel, i: int, j: int) -> np.ndarray:
    """Frame coefficients of nabla_{e_i} e_j, i.e. (1/2) L^k_ij over k."""
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError("frame indices are 1..4")
    tab = l_table(s)
    return np.array([0.5 * tab.get((i, j, k), 0.0) for k in (1, 2, 3, 4)])


def lie_bracket_frame(s: SpaceModel, i: int, j: int) -> np.ndarray:
    """[e_i, e_j] in frame coefficients, from torsion-freeness."""
    return frame_connection(s, i, j) - frame_connection(s, j, i)


def _fd_step(p: np.ndarray) -> np.ndarray:
    return 1e-5 * (1.0 + np.abs(p[..., 3]))


def metric_gradient_at(s: SpaceModel, p, h: float | None = None) -> np.ndarray:
    """Central-difference coordinate gradient dg[..., a, i, j] = d_a g_ij."""
    p = np.asarray(p, dtype=float)
    h = _fd_step(p) if h is None else np.broadcast_to(float(h), p.shape[:-1])
    dg = np.zeros(p.shape[:-1] + (4, 4, 4))
    for a in range(4):
        plus = p.copy()
        plus[..., a] += h
        minus = p.copy()
        minus[..., a] -= h
        dg[..., a, :, :] = (metric_at(s, plus) - metric_at(s, minus)) / (2.0 * h)[..., None, None]
    return dg


def christoffel_at(s: SpaceModel, p, h: float | None = None) -> np.ndarray:
    """Christoffel symbols Gamma[..., i, j, l] from the metric alone.

    Koszul formula with central-difference metric derivatives; this is
    the oracle route, independent of the frame tables.
    """
    g = metric_at(s, p)
    ginv = np.linalg.inv(g)
    dg = metric_gradient_at(s, p, h)
    # Gamma^i_{jl} = (1/2) g^{im} (d_j g_ml + d_l g_mj - d_m g_jl)
    term = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * np.einsum("...im,...mjl->...ijl", ginv, term)


def frame_connection_via_christoffel(
    s: SpaceModel, p: Point, i: int, j: int, h: float | None = None
) -> np.ndarray:
    """Frame coefficients of nabla_{e_i} e_j computed in coordinates.

    Uses only the finite-difference Christoffel oracle and numerical
    derivatives of the frame matrix, then changes back to the frame.
    Serves as the independent cross-check of frame_connection.
    """
    base = np.asarray(p, dtype=float)
    if h is None:
        h = float(_fd_step(base))
    A = frame_matrix(s, base)
    ei = A[:, i - 1]
    # directional derivative of the column e_j along e_i
    dcol = np.zeros(4)
    for a in range(4):
        if ei[a] == 0.0:
            continue
        plus = base.copy()
        plus[a] += h
        minus = base.copy()
        minus[a] -= h
        dA = (frame_matrix(s, plus) - frame_matrix(s, minus)) / (2.0 * h)
        dcol = dcol + ei[a] * dA[:, j - 1]
    gamma = christoffel_at(s, base, h)
    ej = A[:, j - 1]
    cov = dcol + np.einsum("ijl,j,l->i", gamma, ei, ej)
    return np.linalg.solve(A, cov)
