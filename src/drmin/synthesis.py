"""Surface synthesis: integrate component data into a coordinate mesh.

The coordinate tangents are f_u = 2 Re(A(f) psi), f_v = 2 Im(A(f) psi),
where A is the frame matrix evaluated along the (unknown) surface itself,
so each grid line is an ODE in the four coordinates.  The mesh is built
by classic RK4 marching: first along the u-row through the base point,
then along all v-columns, each sweep both ways at once.  A is the frame
of R acting on the Heisenberg group (z its centre), so it is triangular
and RK4 runs as quadratures: t, then x and y, then z.  Re-marching in
the transposed order gives an independent integrability check: for
genuine solutions the two meshes agree to integrator accuracy, for
corrupted data they visibly diverge.  The frame lives here, beside the
march, its one reader.
"""

from __future__ import annotations

import numpy as np

from .expr import WeierstrassData, evaluate_grid
from .mesh import DomainGrid, SurfaceMesh, float_text
from .spaces import Point, SpaceModel
from .weierstrass import ValidationReport, validate


class SynthesisError(Exception):
    pass


class ValidationRefusedError(SynthesisError):
    """Input data failed validation and force was not requested."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.failures()))
        self.report = report


class StepFailureError(SynthesisError):
    """Marching produced a non-finite or unevaluable state."""


FRAME_POINTS = 2048  # points per frame_matrix call in the march; bounds its (..., 4, 4) result


def frame_matrix(s: SpaceModel, p, rows=(0, 1, 2, 3)) -> np.ndarray:
    """Columns are the coordinate components of the orthonormal frame e1..e4 at p.

    Points of shape (..., 4) give matrices of shape (..., 4, 4), or only
    the given rows, in that order: shape (..., len(rows), 4).  Rows 0 and
    1 read t, row 2 reads x, y and t, and row 3 is constant.  The entries
    are built as whole arrays over the points, so the result is a view
    whose matrix axes are its outermost in memory.
    """
    p = np.asarray(p, dtype=float)
    c = s.c
    eh = np.exp(0.5 * p[..., 3])
    A = np.zeros((len(rows), 4) + p.shape[:-1])
    for i, r in enumerate(rows):
        if r == 2:
            A[i, 0] = -0.5 * c * eh * p[..., 1]
            A[i, 1] = 0.5 * c * eh * p[..., 0]
            A[i, 2] = np.exp(p[..., 3])
        elif r == 3:
            A[i, 3] = 1.0
        else:
            A[i, r] = eh
    return A.transpose(*range(2, A.ndim), 0, 1)


def _rk4(s, w, y, coords, base: int, fixed, axis: int) -> np.ndarray:
    """RK4 states on every node of a coordinate line, marched out both ways from node base.

    y holds the state at the base node of each stacked line, shape
    (..., 4); the other parameter is fixed (a scalar, or one value per
    line).  Returns the states, shape (len(coords), ..., 4).  The frame's
    t row is constant, its x and y rows read t and its z row x, y and t,
    so one pass per level (t, then x and y, then z) marches every step of
    both runs, ahead of the base node and behind it: it reads only the
    level's frame rows at the stage points, forms the four stages in one
    product with psi per frame call, and np.add.accumulate sums each run's
    increments in marching order, in place.  The arrays are held
    coordinate-major, so each operation runs over whole blocks.  psi is
    evaluated once, on the base node and every later node and step
    midpoint a + 0.5*h; once gathered per stage, only its failed nodes and
    their errors are kept.  Only if psi failed somewhere or a run ends
    non-finite is the first failure sought: a run fails at its first stage
    reading a node where psi fails or at its first non-finite state, the
    run ahead first.
    """
    lines = y.shape[:-1]
    out = np.empty((4, len(coords), *lines))
    nodes = out.transpose(*range(1, out.ndim), 0)  # the states node by node, as returned
    nodes[base] = y
    runs = (coords[base:], coords[base::-1])
    states = (out[:, base:], out[:, base::-1])  # views: each run's states in marching order
    n = [len(c) - 1 for c in runs]
    steps = n[0] + n[1]
    spans = ((0, n[0]), (n[0], steps))
    # the base node, every later node, then the midpoints, taken per run: reversed
    # steps do not always round to the same float
    x = np.concatenate([coords[base:base + 1], runs[0][1:], runs[1][1:],
                        *(c[:-1] + 0.5 * (c[1:] - c[:-1]) for c in runs)])
    x = x.reshape(-1, *[1] * len(lines))
    ev = evaluate_grid(w.psi, *((x, fixed) if axis == 0 else (fixed, x)), w.kind)
    # the lattice row of each stage of each step, run after run: node,
    # midpoint twice, next node; a run's first step starts at the base row 0
    nxt = np.arange(1, steps + 1)
    node = nxt - 1
    node[n[0]:n[0] + 1] = 0
    rows = np.stack([node, steps + nxt, steps + nxt, nxt])
    psi = np.stack([val[axis] for val in ev.values])[:, rows]  # (component, stage, step, ...)
    # keep only the failures: the lattice values are freed once psi is gathered
    bad, errors = ev.bad.reshape(len(x), -1), ev.first_errors
    del ev
    h = x[nxt] - x[node]
    h6 = h / 6.0
    hk = np.stack([0.5 * h, 0.5 * h, h])  # k1, k2 and k3 to the next stage points
    at = np.empty((4, 4, steps, *lines))  # the stage points, component-major
    points = at.transpose(*range(1, at.ndim), 0)
    per = max(1, FRAME_POINTS // (steps * (y.size // 4)))  # stages per frame call
    # the t row is constant, so the t level reads its frame once, at y
    for frame_rows, where, chunk in (((3,), y[None, None], 4), ((0, 1), points, per),
                                     ((2,), points, per)):
        cols = slice(frame_rows[0], frame_rows[-1] + 1)
        k = np.empty((len(frame_rows), 4, steps, *lines))
        for j in range(0, 4, chunk):
            a = frame_matrix(s, where[j:j + chunk], frame_rows)
            a = a.transpose(-2, -1, *range(a.ndim - 2))  # (row, component, stage, step, ...)
            np.add.reduce(a * psi[:, j:j + chunk], axis=1, out=k[:, j:j + chunk])
        k *= 2.0
        inc = h6 * (k[:, 0] + 2.0 * k[:, 1] + 2.0 * k[:, 2] + k[:, 3])
        for run, (i, m) in zip(states, spans):
            part = run[cols]
            part[:, 1:] = inc[:, i:m]
            np.add.accumulate(part, axis=1, out=part)
        if frame_rows == (2,):
            break  # no frame row reads z, so z needs no stage points
        for run, (i, m) in zip(states, spans):
            at[cols, 0, i:m] = run[cols, :-1]
        np.add(at[cols, :1], hk * k[:, :3], out=at[cols, 1:])
    if not bad.any() and np.isfinite(out[:, [0, -1]]).all():
        return nodes  # a non-finite state stays non-finite along its run
    bad_row = bad.any(axis=1)
    for run, (i, m), c in zip(states, spans, runs):
        # per step: its four stages' psi rows, then the state it reaches
        blown = ~np.isfinite(run[:, 1:]).all(axis=(0, *range(2, run.ndim)))
        events = np.column_stack([bad_row[rows[:, i:m]].T, blown])
        if events.any():
            step, stage = divmod(int(events.argmax()), 5)
            if stage == 4:
                raise StepFailureError(f"non-finite state at {'uv'[axis]} = {float(c[step + 1])!r}")
            row = rows[stage, i + step]  # its first bad node, row-major, as evaluate_grid keys it
            exc = errors[row * bad.shape[1] + int(bad[row].argmax())]
            raise StepFailureError(f"evaluation failed during marching: {exc}") from exc
    return nodes


def _march(s, w, grid: DomainGrid, f0, transposed: bool) -> np.ndarray:
    """(nu, nv, 4) mesh marched out from f0 at the base node.

    The base line runs along u (along v if transposed) through the base
    node; then every line crossing it is marched as one stacked state,
    with the other parameter held at its node on the base line.
    """
    nodes = (grid.u_nodes, grid.v_nodes)
    base = grid.base_index
    first = 1 if transposed else 0  # the axis the base line runs along
    second = 1 - first
    # a state that blows up, and every state marched on from it, is caught by
    # _rk4's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        line = _rk4(s, w, np.asarray(f0, dtype=float), nodes[first], base[first],
                    nodes[second][base[second]], first)
        sheet = _rk4(s, w, line, nodes[second], base[second], nodes[first], second)
    # node-major, each node's four coordinates adjacent, as the mesh's readers iterate
    sheet = np.ascontiguousarray(sheet)
    return sheet if transposed else sheet.swapaxes(0, 1)


def synthesize(
    s: SpaceModel,
    w: WeierstrassData,
    grid: DomainGrid,
    f0: Point | None = None,
    report: ValidationReport | None = None,
    force: bool = False,
) -> SurfaceMesh:
    """Build the surface mesh from validated component data.

    Unless force is set, the data is validated first (or a precomputed
    report is honored) and refused on failure.
    """
    f0 = f0 or Point(0.0, 0.0, 0.0, 0.0)
    if not force:
        if report is None:
            report = validate(s, w, grid)
        if not report.passed:
            raise ValidationRefusedError(report)
    nodes = _march(s, w, grid, f0, transposed=False)
    return SurfaceMesh(
        grid=grid,
        nodes=nodes,
        kind=w.kind,
        space=s.name,
        c=s.c,
        provenance={"f0": " ".join(float_text(f0.as_array()))},
    )


def path_independence(s: SpaceModel, w: WeierstrassData, mesh: SurfaceMesh) -> float:
    """Max node-wise coordinate gap between the mesh and the transposed march.

    The transposed march starts from the mesh's base node.  Small values
    certify that the first-order system is integrable, i.e. that the mesh
    does not depend on the integration path.
    """
    i0, j0 = mesh.grid.base_index
    other = _march(s, w, mesh.grid, mesh.nodes[i0, j0], transposed=True)
    return float(np.abs(mesh.nodes - other).max())
