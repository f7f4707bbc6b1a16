"""Validation of surface data: immersion, conformality, harmonicity.

Three pointwise checks on a component quadruple psi_1..psi_4:

* condition_i  -- signed conformal density sum_k eps_k |psi_k|^2, which
  must stay away from zero for the synthesized map to be an immersion;
* condition_ii -- the isotropy sum sum_k eps_k psi_k^2, which must vanish
  for conformality;
* the first-order harmonicity system, evaluated both in its generic
  structure-constant form (driven by any L-table) and in the explicit
  per-space four-equation form.  The two routes are algebraically equal;
  computing both guards against transcription slips in either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra, expr
from .algebra import Kind, Scalar
from .expr import WeierstrassData
from .spaces import SpaceKind, SpaceModel, l_table


@dataclass(frozen=True)
class DomainGrid:
    """Rectangular evaluation grid with a distinguished base point.

    The base point (u0, v0) is snapped onto the nearest grid node so the
    marching integrator can start exactly on the lattice.  Rectangles are
    simply connected by construction.
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int
    nv: int
    u0: float
    v0: float

    def __post_init__(self):
        if not (self.u_max > self.u_min and self.v_max > self.v_min):
            raise ValueError("degenerate rectangle")
        if self.nu < 2 or self.nv < 2:
            raise ValueError("need at least 2 nodes per direction")
        if not (self.u_min <= self.u0 <= self.u_max and self.v_min <= self.v0 <= self.v_max):
            raise ValueError("base point outside the rectangle")

    @property
    def u_nodes(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.nu)

    @property
    def v_nodes(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.nv)

    @property
    def base_index(self) -> tuple[int, int]:
        i0 = int(np.argmin(np.abs(self.u_nodes - self.u0)))
        j0 = int(np.argmin(np.abs(self.v_nodes - self.v0)))
        return i0, j0

    @property
    def base_point(self) -> tuple[float, float]:
        """The snapped base point (a grid node)."""
        i0, j0 = self.base_index
        return float(self.u_nodes[i0]), float(self.v_nodes[j0])

    def with_resolution(self, nu: int, nv: int) -> "DomainGrid":
        return DomainGrid(self.u_min, self.u_max, self.v_min, self.v_max, nu, nv, self.u0, self.v0)


def float_text(values) -> list[str]:
    """The text of every float drmin writes, row-major: repr of the Python float."""
    return list(map(repr, np.ravel(np.asarray(values, dtype=float)).tolist()))


def write_node_table(path, grid: DomainGrid, columns: dict, preamble: str = "") -> None:
    """Write one CSV row per grid node, in row-major order: u, v, then columns.

    columns maps header names to (nu, nv) arrays: floats are written through
    float_text, object arrays of strings as they are.  Rows end in CRLF after
    the preamble; the text is built one grid row at a time, never for the
    whole file.
    """
    u_text, v_text = float_text(grid.u_nodes), float_text(grid.v_nodes)
    with open(path, "w", newline="") as fh:
        fh.write(preamble + ",".join(["u", "v", *columns]) + "\r\n")
        for i, u in enumerate(u_text):
            cells = [
                c[i].tolist() if c.dtype == object else float_text(c[i]) for c in columns.values()
            ]
            fh.write("".join(
                f"{u},{v},{','.join(node)}\r\n" for v, node in zip(v_text, zip(*cells))
            ))


@dataclass(frozen=True)
class ValidationTolerances:
    harmonicity: float = 1e-10
    conformality: float = 1e-10
    immersion_floor: float = 1e-8


def condition_i(s: SpaceModel, w: WeierstrassData, u: float, v: float) -> float:
    psi = w.eval_components(u, v)
    eps = s.signature
    return sum(eps[k] * algebra.modulus_sq(psi[k]) for k in range(4))


def condition_ii(s: SpaceModel, w: WeierstrassData, u: float, v: float) -> Scalar:
    psi = w.eval_components(u, v)
    eps = s.signature
    out = algebra.zero(w.kind)
    for k in range(4):
        out = out + eps[k] * (psi[k] * psi[k])
    return out


def conformal_density(s: SpaceModel, kind: Kind, psi) -> np.ndarray:
    """condition_i over arrays, from the (re, im) pairs of psi_1..psi_4."""
    eps = s.signature
    out = 0.0
    with np.errstate(all="ignore"):
        for k, (re, im) in enumerate(psi):
            out = out + eps[k] * (re * re - kind.sigma * im * im)
    return out


def _bar_derivatives(w: WeierstrassData) -> tuple[expr.Expr, ...]:
    return tuple(expr.wirtinger_bar(p) for p in w.psi)


def harmonicity_residual_generic(
    L: dict[tuple[int, int, int], float],
    w: WeierstrassData,
    u: float,
    v: float,
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Residual r_k = dpsi_k/dzbar + (1/2) sum_ij L^k_ij conj(psi_i) psi_j."""
    psi = w.eval_components(u, v)
    bars = [expr.evaluate(d, u, v, w.kind) for d in _bar_derivatives(w)]
    res = list(bars)
    for (i, j, k), val in L.items():
        res[k - 1] = res[k - 1] + 0.5 * val * (algebra.conj(psi[i - 1]) * psi[j - 1])
    return tuple(res)


def harmonicity_residual_explicit(
    s: SpaceModel, w: WeierstrassData, u: float, v: float
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The per-space four-equation harmonicity system, written out."""
    p1, p2, p3, p4 = w.eval_components(u, v)
    b1, b2, b3, b4 = (expr.evaluate(d, u, v, w.kind) for d in _bar_derivatives(w))
    c = s.c
    kind = w.kind

    def re(sc: Scalar) -> Scalar:
        return Scalar(sc.re, 0.0, kind)

    q1 = algebra.conj(p1)
    q2 = algebra.conj(p2)
    q3 = algebra.conj(p3)
    if s.kind is SpaceKind.FIRST:
        r1 = b1 - 0.5 * (q1 * p4) + c * re(q2 * p3)
        r2 = b2 - 0.5 * (q2 * p4) - c * re(q1 * p3)
        r3 = b3 - q3 * p4 + 0.5 * c * (q1 * p2 - q2 * p1)
        r4 = b4 - 0.5 * (q1 * p1 + q2 * p2) - q3 * p3
    else:
        r1 = b1 - 0.5 * (q1 * p4) - c * re(q2 * p3)
        r2 = b2 - 0.5 * (q2 * p4) + c * re(q1 * p3)
        r3 = b3 - q3 * p4 + 0.5 * c * (q1 * p2 - q2 * p1)
        r4 = b4 + 0.5 * (q1 * p1 + q2 * p2) - q3 * p3
    return (r1, r2, r3, r4)


@dataclass
class ValidationReport:
    """Per-node residual fields with sup-norms and a verdict."""

    grid: DomainGrid
    kind: Kind
    space: str
    cond_i: np.ndarray  # (nu, nv) real
    cond_ii_re: np.ndarray
    cond_ii_im: np.ndarray
    residual_re: np.ndarray  # (4, nu, nv)
    residual_im: np.ndarray
    node_ok: np.ndarray  # bool mask; False where evaluation failed
    tolerances: ValidationTolerances
    errors: list = field(default_factory=list)

    @property
    def harmonicity_sup(self) -> float:
        mags = np.hypot(self.residual_re, self.residual_im)
        mags = np.where(self.node_ok[None, :, :], mags, 0.0)
        return float(mags.max())

    @property
    def conformality_sup(self) -> float:
        mags = np.hypot(self.cond_ii_re, self.cond_ii_im)
        return float(np.where(self.node_ok, mags, 0.0).max())

    @property
    def immersion_min(self) -> float:
        vals = np.where(self.node_ok, np.abs(self.cond_i), np.inf)
        return float(vals.min())

    @property
    def all_nodes_ok(self) -> bool:
        return bool(self.node_ok.all())

    def failures(self) -> list[str]:
        out = []
        if not self.all_nodes_ok:
            out.append(f"{int((~self.node_ok).sum())} nodes failed to evaluate")
        # written as "not <=" so that NaN fails
        if not self.harmonicity_sup <= self.tolerances.harmonicity:
            out.append(
                f"harmonicity sup-norm {self.harmonicity_sup:.3e} exceeds "
                f"{self.tolerances.harmonicity:.1e}"
            )
        if not self.conformality_sup <= self.tolerances.conformality:
            out.append(
                f"conformality sup-norm {self.conformality_sup:.3e} exceeds "
                f"{self.tolerances.conformality:.1e}"
            )
        if not self.immersion_min >= self.tolerances.immersion_floor:
            out.append(
                f"degenerate (non-immersion): min |density| {self.immersion_min:.3e} "
                f"below floor {self.tolerances.immersion_floor:.1e}"
            )
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()

    def worst_node(self) -> tuple[float, float]:
        mags = np.hypot(self.residual_re, self.residual_im).max(axis=0)
        mags = np.where(self.node_ok, mags, np.inf)
        i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
        return float(self.grid.u_nodes[i]), float(self.grid.v_nodes[j])

    def summary(self) -> str:
        lines = [
            f"validation report ({self.space}, {self.kind.value} algebra, "
            f"{self.grid.nu}x{self.grid.nv} grid)",
            f"  harmonicity sup-norm : {self.harmonicity_sup:.6e}",
            f"  conformality sup-norm: {self.conformality_sup:.6e}",
            f"  min |density|        : {self.immersion_min:.6e}",
        ]
        if self.passed:
            lines.append("  verdict: PASS")
        else:
            lines.append("  verdict: FAIL")
            for reason in self.failures():
                lines.append(f"    - {reason}")
            wu, wv = self.worst_node()
            lines.append(f"    max residual near (u, v) = ({wu:.6g}, {wv:.6g})")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        columns = {
            "cond_i": self.cond_i, "cond_ii_re": self.cond_ii_re, "cond_ii_im": self.cond_ii_im
        }
        for k in range(4):
            columns[f"r{k + 1}_re"] = self.residual_re[k]
            columns[f"r{k + 1}_im"] = self.residual_im[k]
        write_node_table(path, self.grid, columns)


def validate(
    s: SpaceModel,
    w: WeierstrassData,
    grid: DomainGrid,
    tolerances: ValidationTolerances | None = None,
) -> ValidationReport:
    """Evaluate the three checks over the whole grid and assemble the report.

    Nodes where evaluation fails (poles, zero divisors, log domain,
    non-finite function values) are recorded and masked out instead of
    aborting the sweep; their fields read 0.  The arithmetic is that of
    condition_i, condition_ii and harmonicity_residual_generic, one
    array operation per Scalar operation.
    """
    tolerances = tolerances or ValidationTolerances()
    u_nodes, v_nodes = grid.u_nodes, grid.v_nodes
    ev = expr.evaluate_grid(w.psi + _bar_derivatives(w), u_nodes[:, None], v_nodes[None, :], w.kind)
    psi, res = ev.values[:4], list(ev.values[4:])
    sigma = w.kind.sigma
    eps = s.signature

    def scaled(x, a, b):
        # x * (a * b) with the real x entering as the full product with
        # (x, 0.0), as Scalar coerces it: 0 * inf gives NaN here too
        return algebra.mul_arrays(algebra.mul_arrays(a, b, sigma), (x, 0.0), sigma)

    with np.errstate(all="ignore"):
        cond_i = conformal_density(s, w.kind, psi)
        cond_ii = (0.0, 0.0)
        for k in range(4):
            term = scaled(float(eps[k]), psi[k], psi[k])
            cond_ii = (cond_ii[0] + term[0], cond_ii[1] + term[1])
        for (i, j, k), val in l_table(s).items():
            term = scaled(0.5 * val, (psi[i - 1][0], -psi[i - 1][1]), psi[j - 1])
            res[k - 1] = (res[k - 1][0] + term[0], res[k - 1][1] + term[1])

    def masked(field):
        return np.where(ev.bad, 0.0, field)

    return ValidationReport(
        grid=grid,
        kind=w.kind,
        space=s.name,
        cond_i=masked(cond_i),
        cond_ii_re=masked(cond_ii[0]),
        cond_ii_im=masked(cond_ii[1]),
        residual_re=masked(np.stack([r[0] for r in res])),
        residual_im=masked(np.stack([r[1] for r in res])),
        node_ok=~ev.bad,
        tolerances=tolerances,
        errors=[(float(u_nodes[i]), float(v_nodes[j]), str(exc)) for (i, j), exc in ev.errors()],
    )
