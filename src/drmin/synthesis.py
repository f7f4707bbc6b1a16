"""Surface synthesis: integrate component data into a coordinate mesh.

The coordinate tangents are f_u = 2 Re(A(f) psi), f_v = 2 Im(A(f) psi),
where A is the frame matrix evaluated along the (unknown) surface itself,
so each grid line is an ODE in the four coordinates.  The mesh is built
by classic RK4 marching along the u-row through the base point and along
every v-column, which starts from its node on that row; all of them run
both ways at once, in one pass per level.  A is the frame of R acting on
the Heisenberg group (z its centre), so it is triangular and RK4 runs as
quadratures: t, then x and y, then z.  Re-marching in the transposed
order gives an independent integrability check: for genuine solutions
the two meshes agree to integrator accuracy, for corrupted data they
visibly diverge.  The frame lives here, beside the march, its one reader.
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


# a state that blows up, and every state marched on from it, is caught by the
# march's finiteness check
@np.errstate(over="ignore", invalid="ignore")
def _march(s, w, grid: DomainGrid, f0, transposed: bool) -> np.ndarray:
    """(nu, nv, 4) mesh marched by RK4 out from f0 at the base node, in one pass per level.

    The base line runs along u (along v if transposed) through the base
    node; every line crossing it starts from its node there, with the
    other parameter held at that node.  Each sweep (the base line, the
    crossing lines as one) marches out both ways from the base node: a run
    ahead of it and a run behind it.  psi is evaluated once, as flat
    points: the base line's lattice, then the crossing lines', each the
    base node and every later node and step midpoint a + 0.5*h of its
    runs.  The frame's t row is constant, its x and y rows read t and its
    z row x, y and t, so one pass per level (t, then x and y, then z)
    marches every step of the four runs: it reads only the level's frame
    rows at all the stage points (the t row once, at f0), forms the four
    stages in one product with psi per frame call, and np.add.accumulate
    sums each run's increments in marching order, in place, the base
    line's first, since its states are the crossing lines' base row.  The
    arrays are held coordinate-major, then stage, then the runs' steps and
    lines flat, so each operation runs over whole blocks.  Only if psi
    failed somewhere or a line ends non-finite is the first failure
    sought, the base line's runs first, each run ahead before the run
    behind: a run fails at its first stage reading a node where psi fails
    or at its first non-finite state.
    """
    nodes = (grid.u_nodes, grid.v_nodes)
    base = grid.base_index
    first = 1 if transposed else 0  # the axis the base line runs along
    second = 1 - first
    sheet = np.empty((4, len(nodes[second]), len(nodes[first])))  # the states, coordinate-major
    line = sheet[:, base[second], :, None]  # the base line is the crossing lines' base row
    f0 = np.asarray(f0, dtype=float)
    line[:, base[first], 0] = f0
    lattice = ([], [])  # the flat lattice's u and v, sweep after sweep
    # per sweep: its axis, its block of the flat lattice, its lines, the lattice row
    # of each stage of each step, its span of the stage points, h/6, the steps to
    # the next stage points, and its two runs (states, coordinates, span of steps)
    sweeps = []
    start = points = 0
    for axis, states, fixed in ((first, line, nodes[second][base[second]:base[second] + 1]),
                                (second, sheet, nodes[first])):
        coords, b = nodes[axis], base[axis]
        ahead, behind = coords[b:], coords[b::-1]
        n, steps, lines = len(ahead) - 1, len(coords) - 1, len(fixed)
        # the base node, every later node, then the midpoints, taken per run:
        # reversed steps do not always round to the same float
        x = np.concatenate([coords[b:b + 1], ahead[1:], behind[1:],
                            *(c[:-1] + 0.5 * (c[1:] - c[:-1]) for c in (ahead, behind))])
        lattice[axis].append(np.repeat(x, lines))
        lattice[1 - axis].append(np.tile(fixed, len(x)))
        # the lattice row of each stage of each step, run after run: node,
        # midpoint twice, next node; a run's first step starts at the base row 0
        nxt = np.arange(1, steps + 1)
        node = nxt - 1
        node[n:n + 1] = 0
        h = (x[nxt] - x[node])[:, None]  # per step, broadcast over the lines
        sweeps.append((axis, slice(start, start + x.size * lines), lines,
                       np.stack([node, steps + nxt, steps + nxt, nxt]),
                       slice(points, points + steps * lines), h / 6.0,
                       np.stack([0.5 * h, 0.5 * h, h]),
                       ((states[:, b:], ahead, 0, n), (states[:, b::-1], behind, n, steps))))
        start += x.size * lines
        points += steps * lines

    def steps_of(a, span, lines):  # a sweep's part of a level array, as (..., step, line)
        return a[..., span].reshape(*a.shape[:-1], -1, lines)

    ev = evaluate_grid(w.psi, *map(np.concatenate, lattice), w.kind)
    del lattice
    psi = np.empty((4, 4, points))  # (component, stage, point)
    for axis, block, lines, rows, span, *_ in sweeps:
        for comp, val in zip(psi, ev.values):
            steps_of(comp, span, lines)[...] = val[axis][block].reshape(-1, lines)[rows]
    # keep only the failures: the lattice values are freed once psi is gathered
    bad, errors = ev.bad, ev.first_errors
    del ev, val
    at = np.empty((4, 4, points))  # the stage points, coordinate-major
    k = np.empty((2, 4, points))
    per = max(1, FRAME_POINTS // points)  # stages per frame call
    # the t row is constant, so the t level reads its frame once, at f0
    for frame_rows, where, chunk in (((3,), f0[None, None], 4),
                                     ((0, 1), at.transpose(1, 2, 0), per),
                                     ((2,), at.transpose(1, 2, 0), per)):
        cols = slice(frame_rows[0], frame_rows[-1] + 1)
        kl = k[:len(frame_rows)]
        for j in range(0, 4, chunk):
            a = frame_matrix(s, where[j:j + chunk], frame_rows)
            a = a.transpose(-2, -1, *range(a.ndim - 2))  # (row, component, stage, point)
            np.add.reduce(a * psi[:, j:j + chunk], axis=1, out=kl[:, j:j + chunk])
        kl *= 2.0
        # each step's k1 + 2*k2 + 2*k3 + k4, in place of k4, which no stage point reads
        inc = np.add(kl[:, 0] + 2.0 * kl[:, 1] + 2.0 * kl[:, 2], kl[:, 3], out=kl[:, 3])
        # the base line's runs first: their states seed the crossing lines
        for axis, block, lines, rows, span, h6, hk, runs in sweeps:
            inc_s = steps_of(inc, span, lines)
            for states, c, i, m in runs:
                part = states[cols]
                np.multiply(h6[i:m], inc_s[:, i:m], out=part[:, 1:])
                np.add.accumulate(part, axis=1, out=part)
        if frame_rows == (2,):
            break  # no frame row reads z, so z needs no stage points
        for axis, block, lines, rows, span, h6, hk, runs in sweeps:
            at_s = steps_of(at[cols], span, lines)
            for states, c, i, m in runs:
                at_s[:, 0, i:m] = states[cols, :-1]
            np.add(at_s[:, :1], hk * steps_of(kl[:, :3], span, lines), out=at_s[:, 1:])
    # node-major, each node's four coordinates adjacent, as the mesh's readers iterate
    out = np.ascontiguousarray(sheet.transpose(1, 2, 0))
    out = out if transposed else out.swapaxes(0, 1)
    if not bad.any() and np.isfinite(sheet[:, [0, -1]]).all():
        return out  # a non-finite state stays non-finite along its line
    for axis, block, lines, rows, span, h6, hk, runs in sweeps:
        sweep_bad = bad[block].reshape(-1, lines)
        bad_row = sweep_bad.any(axis=1)
        for states, c, i, m in runs:
            # per step: its four stages' psi rows, then the state it reaches
            blown = ~np.isfinite(states[:, 1:]).all(axis=(0, 2))
            events = np.column_stack([bad_row[rows[:, i:m]].T, blown])
            if events.any():
                step, stage = divmod(int(events.argmax()), 5)
                if stage == 4:
                    name = f"{'uv'[axis]} = {float(c[step + 1])!r}"
                    raise StepFailureError(f"non-finite state at {name}")
                # its first bad node, row-major, as evaluate_grid keys it
                row = rows[stage, i + step]
                exc = errors[block.start + row * lines + int(sweep_bad[row].argmax())]
                raise StepFailureError(f"evaluation failed during marching: {exc}") from exc
    return out


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
