"""Second routes to what the package computes, called only by the tests.

Each keeps the arithmetic it had in the package, so the tests compare
against the same references: the frame connection from the L-table and
from the Christoffel symbols, the node-by-node generic harmonicity
residual, split coordinates, tree printing, the per-stage march on the
full two-column frame product (the package applies only the column a
stage uses), the metric gradient by hand, by central differences and by
one complex-step metric call per axis (the package makes one call on all
four axes), the full Christoffel tensor from the inverted metric (the package
contracts the Koszul formula first and solves), the tension residual
with one such tensor per interior row, expression trees with no node
object in two places, and the partial derivative trees that the package
builds only inside its Wirtinger trees.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from drmin import algebra, expr
from drmin.algebra import Kind, KindMismatchError, Scalar
from drmin.expr import Add, Call, Conj, Const, Div, Expr, Mul, Neg, Pow, Sub, Unit, Var
from drmin.expr import GridEval, WeierstrassData, evaluate_grid
from drmin.mesh import SurfaceMesh
from drmin.spaces import COMPLEX_STEP, Point, SpaceKind, SpaceModel, christoffel_at, metric_at
from drmin.synthesis import frame_matrix
from drmin.weierstrass import l_table


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


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def print_expr(e: Expr, kind: Kind) -> str:
    """Render a tree back to grammar text (fully parenthesized where needed)."""
    if isinstance(e, Const):
        if e.im == 0.0:
            if e.re < 0:
                return f"(-{_num(-e.re)})"
            return _num(e.re)
        raise ValueError("Const with unit part should be built as Mul(Const, Unit)")
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unit):
        return kind.unit_symbol
    if isinstance(e, Add):
        return f"({print_expr(e.a, kind)} + {print_expr(e.b, kind)})"
    if isinstance(e, Sub):
        return f"({print_expr(e.a, kind)} - {print_expr(e.b, kind)})"
    if isinstance(e, Mul):
        return f"({print_expr(e.a, kind)} * {print_expr(e.b, kind)})"
    if isinstance(e, Div):
        return f"({print_expr(e.a, kind)} / {print_expr(e.b, kind)})"
    if isinstance(e, Pow):
        return f"({print_expr(e.base, kind)})^{e.n}" if e.n >= 0 else f"({print_expr(e.base, kind)})^-{-e.n}"
    if isinstance(e, Neg):
        return f"(-{print_expr(e.a, kind)})"
    if isinstance(e, Conj):
        return f"conj({print_expr(e.a, kind)})"
    if isinstance(e, Call):
        return f"{e.fn}({print_expr(e.a, kind)})"
    raise TypeError(type(e))


def expr_children(e: Expr) -> list[Expr]:
    """The operands of a node, in field order."""
    return [a for a in vars(e).values() if isinstance(a, Expr)]


def distinct_nodes(trees) -> list[Expr]:
    """Every node object reachable from the trees, each once."""
    seen, stack = {}, list(trees)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack += expr_children(e)
    return list(seen.values())


def diff(e: Expr, wrt: str) -> Expr:
    """Exact partial derivative tree with respect to 'u' or 'v', over a pool of its own."""
    if wrt not in ("u", "v"):
        raise ValueError("wrt must be 'u' or 'v'")
    return expr._Derivatives().partial(e, wrt)


def unshared(e: Expr) -> Expr:
    """The tree rebuilt with a new object at every place, each keeping its pos."""
    children = {f.name: unshared(getattr(e, f.name)) for f in dataclasses.fields(e)
                if isinstance(getattr(e, f.name), Expr)}
    return dataclasses.replace(e, **children)


def frame_connection(s: SpaceModel, i: int, j: int) -> np.ndarray:
    """Frame coefficients of nabla_{e_i} e_j, i.e. (1/2) L^k_ij over k."""
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError("frame indices are 1..4")
    tab = l_table(s)
    return np.array([0.5 * tab.get((i, j, k), 0.0) for k in (1, 2, 3, 4)])


def lie_bracket_frame(s: SpaceModel, i: int, j: int) -> np.ndarray:
    """[e_i, e_j] in frame coefficients, from torsion-freeness."""
    return frame_connection(s, i, j) - frame_connection(s, j, i)


def frame_connection_via_christoffel(s: SpaceModel, p: Point, i: int, j: int) -> np.ndarray:
    """Frame coefficients of nabla_{e_i} e_j computed in coordinates.

    Uses only the metric's Christoffel symbols and central-difference
    derivatives of the frame matrix, then changes back to the frame.
    Serves as the independent cross-check of frame_connection.  Gamma is
    symmetric in its lower indices, so Gamma(e_i, e_j) is the package's
    contraction with sym(e_i (x) e_j), the route verify runs.
    """
    base = np.asarray(p, dtype=float)
    h = float(fd_step(base))
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
    ej = A[:, j - 1]
    cov = dcol + christoffel_at(s, base, 0.5 * (np.outer(ei, ej) + np.outer(ej, ei)))
    return np.linalg.solve(A, cov)


def harmonicity_residual_generic(
    L: dict[tuple[int, int, int], float],
    w: WeierstrassData,
    u: float,
    v: float,
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Residual r_k = dpsi_k/dzbar + (1/2) sum_ij L^k_ij conj(psi_i) psi_j."""
    psi = w.eval_components(u, v)
    bars = [expr.evaluate(expr.wirtinger_bar(p), u, v, w.kind) for p in w.psi]
    res = list(bars)
    for (i, j, k), val in L.items():
        res[k - 1] = res[k - 1] + 0.5 * val * (algebra.conj(psi[i - 1]) * psi[j - 1])
    return tuple(res)


def _psi_values(ev: GridEval) -> np.ndarray:
    """(..., 4, 2) array of the psi values (re, im) of a grid evaluation."""
    return np.stack([np.stack(val, axis=-1) for val in ev.values], axis=-2)


def _apply_frame(s: SpaceModel, p, psi) -> np.ndarray:
    """2 A(p) psi as (..., 4, 2): its re and im parts are (f_u, f_v)."""
    return 2.0 * (frame_matrix(s, p)[..., :, :, None] * psi[..., None, :, :]).sum(axis=-2)


def tangent_field(s: SpaceModel, w: WeierstrassData, p, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate tangents (f_u, f_v) at parameters (u, v) and positions p.

    p has shape (..., 4); u and v broadcast against its leading shape.
    Raises the EvalError of the first node (row-major) where psi fails.
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape[:-1]
    ev = evaluate_grid(w.psi, np.broadcast_to(u, shape), np.broadcast_to(v, shape), w.kind)
    ev.raise_first()
    f = _apply_frame(s, p, _psi_values(ev))
    return f[..., 0], f[..., 1]


def mesh_tangent_consistency(s: SpaceModel, w: WeierstrassData, mesh: SurfaceMesh) -> float:
    """Interior sup gap between central-difference mesh tangents and tangent_field."""
    g = mesh.grid
    inner = (slice(1, -1), slice(1, -1))
    fu, fv = tangent_field(
        s, w, mesh.nodes[inner], g.u_nodes[1:-1, None], g.v_nodes[None, 1:-1]
    )
    fu_fd, fv_fd = mesh.tangents()
    return float(np.maximum(np.abs(fu_fd[inner] - fu).max(), np.abs(fv_fd[inner] - fv).max()))


def metric_gradient_exact(s: SpaceModel, p) -> np.ndarray:
    """dg[..., a, i, j] = d_a g_ij, differentiated by hand from the entries of metric_at."""
    p = np.asarray(p, dtype=float)
    c = s.c
    et = np.exp(-p[..., 3])
    e2t = (1.0 if s.kind is SpaceKind.FIRST else -1.0) * np.exp(-2.0 * p[..., 3])
    a, b = 0.5 * c * p[..., 1], -0.5 * c * p[..., 0]
    dg = np.zeros(p.shape[:-1] + (4, 4, 4))
    # x moves only b = -(c/2) x, y only a = (c/2) y, and z nothing
    dg[..., 0, 1, 1] = -c * e2t * b
    dg[..., 0, 0, 1] = dg[..., 0, 1, 0] = -0.5 * c * e2t * a
    dg[..., 0, 1, 2] = dg[..., 0, 2, 1] = -0.5 * c * e2t
    dg[..., 1, 0, 0] = c * e2t * a
    dg[..., 1, 0, 1] = dg[..., 1, 1, 0] = 0.5 * c * e2t * b
    dg[..., 1, 0, 2] = dg[..., 1, 2, 0] = 0.5 * c * e2t
    # t scales e^{-t} by -1 and e^{-2t} by -2
    dg[..., 3, 0, 0] = -et - 2.0 * e2t * a * a
    dg[..., 3, 1, 1] = -et - 2.0 * e2t * b * b
    dg[..., 3, 2, 2] = -2.0 * e2t
    dg[..., 3, 0, 1] = dg[..., 3, 1, 0] = -2.0 * e2t * a * b
    dg[..., 3, 0, 2] = dg[..., 3, 2, 0] = -2.0 * e2t * a
    dg[..., 3, 1, 2] = dg[..., 3, 2, 1] = -2.0 * e2t * b
    return dg


def fd_step(p: np.ndarray) -> np.ndarray:
    """The central-difference step at points p, scaled with the e^{-t} factors of the metric."""
    return 1e-5 * (1.0 + np.abs(p[..., 3]))


def metric_gradient_by_axis(s: SpaceModel, p) -> np.ndarray:
    """Central-difference dg[..., a, i, j] = d_a g_ij, two metric calls per axis a."""
    p = np.asarray(p, dtype=float)
    h = fd_step(p)
    dg = np.zeros(p.shape[:-1] + (4, 4, 4))
    for a in range(4):
        plus = p.copy()
        plus[..., a] += h
        minus = p.copy()
        minus[..., a] -= h
        dg[..., a, :, :] = (metric_at(s, plus) - metric_at(s, minus)) / (2.0 * h)[..., None, None]
    return dg


def metric_gradient_by_complex_step(s: SpaceModel, p) -> np.ndarray:
    """dg[..., a, i, j] = Im g_ij(p + i*COMPLEX_STEP*e_a) / COMPLEX_STEP, a call per axis."""
    p = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore"):  # complex exp warns on NaN coordinates
        return np.stack([metric_at(s, p + 1j * COMPLEX_STEP * e).imag / COMPLEX_STEP
                         for e in np.eye(4)], axis=-3)


def christoffel_by_axis(s: SpaceModel, p) -> np.ndarray:
    """The full Gamma[..., i, j, l] by the Koszul formula, from the inverted metric."""
    g = metric_at(s, p)
    ginv = np.linalg.inv(g)
    dg = metric_gradient_by_complex_step(s, p)
    term = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * np.einsum("...im,...mjl->...ijl", ginv, term)


def tension_residual_by_row(s: SpaceModel, mesh: SurfaceMesh) -> np.ndarray:
    """verify.tension_residual from the full Christoffel tensor of each interior row."""
    du, dv = mesh.spacing
    n = mesh.nodes
    sign = 1.0 if mesh.kind is Kind.COMPLEX else -1.0
    mid = n[1:-1, 1:-1]
    fuu = (n[2:, 1:-1] - 2.0 * mid + n[:-2, 1:-1]) / (du * du)
    fvv = (n[1:-1, 2:] - 2.0 * mid + n[1:-1, :-2]) / (dv * dv)
    fu, fv = (f[1:-1, 1:-1] for f in mesh.tangents())
    quad = np.empty_like(mid)
    for i, row in enumerate(mid):
        gamma = christoffel_by_axis(s, row)
        quad[i] = np.einsum("kijl,kj,kl->ki", gamma, fu[i], fu[i]) + sign * np.einsum(
            "kijl,kj,kl->ki", gamma, fv[i], fv[i]
        )
    out = np.full(n.shape, np.nan)
    out[1:-1, 1:-1] = fuu + sign * fvv + quad
    return out
