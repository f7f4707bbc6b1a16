"""Validation of surface data: immersion, conformality, harmonicity.

Three pointwise checks on a component quadruple psi_1..psi_4:

* condition_i  -- signed conformal density sum_k eps_k |psi_k|^2, which
  must stay away from zero for the synthesized map to be an immersion;
* condition_ii -- the isotropy sum sum_k eps_k psi_k^2, which must vanish
  for conformality;
* the first-order harmonicity system, which validate evaluates in its
  generic structure-constant form (driven by any L-table) and
  harmonicity_residual_explicit in the per-space four-equation form.  The
  two routes are algebraically equal; computing both guards against
  transcription slips in either.  The node-by-node generic route is test
  code, in tests/oracles.py.

The L-table lives here, beside validate, its one reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra, expr
from .algebra import Kind, Scalar
from .expr import WeierstrassData
from .mesh import DomainGrid, exceeds, report_lines, write_node_table
from .spaces import SpaceKind, SpaceModel, conformal_density


@dataclass(frozen=True)
class ValidationTolerances:
    harmonicity: float = 1e-10
    conformality: float = 1e-10
    immersion_floor: float = 1e-8


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


def harmonicity_residual_explicit(
    s: SpaceModel, w: WeierstrassData, u: float, v: float
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The per-space four-equation harmonicity system, written out."""
    p1, p2, p3, p4 = w.eval_components(u, v)
    b1, b2, b3, b4 = (expr.evaluate(d, u, v, w.kind) for d in w.bars)
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
        tol = self.tolerances
        out += filter(None, [
            exceeds("harmonicity sup-norm", self.harmonicity_sup, tol.harmonicity),
            exceeds("conformality sup-norm", self.conformality_sup, tol.conformality),
        ])
        if not self.immersion_min >= tol.immersion_floor:  # a floor; NaN fails it too
            out.append(
                f"degenerate (non-immersion): min |density| {self.immersion_min:.3e} "
                f"below floor {tol.immersion_floor:.1e}"
            )
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()

    def worst_node(self) -> tuple[float, float] | None:
        """(u, v) of the largest residual over the evaluated nodes; None if there are none."""
        if not self.node_ok.any():
            return None
        mags = np.hypot(self.residual_re, self.residual_im).max(axis=0)
        mags = np.where(self.node_ok, mags, -np.inf)
        i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
        return float(self.grid.u_nodes[i]), float(self.grid.v_nodes[j])

    def summary(self) -> str:
        failures = self.failures()
        lines = report_lines(
            f"validation report ({self.space}, {self.kind.value} algebra, "
            f"{self.grid.nu}x{self.grid.nv} grid)",
            {
                "harmonicity sup-norm": f"{self.harmonicity_sup:.6e}",
                "conformality sup-norm": f"{self.conformality_sup:.6e}",
                "min |density|": f"{self.immersion_min:.6e}",
            },
            failures,
        )
        worst = self.worst_node() if failures else None
        if worst is not None:
            lines.append(f"    max residual near (u, v) = ({worst[0]:.6g}, {worst[1]:.6g})")
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
    condition_i, condition_ii and the node-by-node generic residual
    (tests/oracles.py), one array operation per Scalar operation.
    """
    tolerances = tolerances or ValidationTolerances()
    u_nodes, v_nodes = grid.u_nodes, grid.v_nodes
    ev = expr.evaluate_grid(w.psi + w.bars, u_nodes[:, None], v_nodes[None, :], w.kind)
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

    u_list, v_list = u_nodes.tolist(), v_nodes.tolist()

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
        errors=[(u_list[i], v_list[j], str(exc)) for (i, j), exc in ev.errors()],
    )
