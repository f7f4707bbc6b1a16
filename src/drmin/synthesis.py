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
corrupted data they visibly diverge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import Kind
from .expr import WeierstrassData, evaluate_grid
from .spaces import Point, SpaceModel, frame_matrix
from .weierstrass import (
    DomainGrid,
    ValidationReport,
    float_text,
    validate,
    write_node_table,
)


class SynthesisError(Exception):
    pass


class ValidationRefusedError(SynthesisError):
    """Input data failed validation and force was not requested."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.failures()))
        self.report = report


class StepFailureError(SynthesisError):
    """Marching produced a non-finite or unevaluable state."""


MESH_CSV_COLUMNS = ("u", "v", "x", "y", "z", "t")
FRAME_POINTS = 2048  # points per frame_matrix call in the march; bounds its (..., 4, 4) result


@dataclass
class SurfaceMesh:
    grid: DomainGrid
    nodes: np.ndarray  # (nu, nv, 4) coordinates (x, y, z, t)
    kind: Kind
    space: str
    c: float
    provenance: dict = field(default_factory=dict)

    @property
    def causal_character(self) -> str:
        """Expected character from the algebra driving the data."""
        return "spacelike" if self.kind is Kind.COMPLEX else "timelike"

    @property
    def spacing(self) -> tuple[float, float]:
        g = self.grid
        return (g.u_max - g.u_min) / (g.nu - 1), (g.v_max - g.v_min) / (g.nv - 1)

    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """Finite-difference (f_u, f_v), each (nu, nv, 4).

        Central differences in the interior, one-sided on the boundary.
        """
        fu, fv = np.gradient(self.nodes, *self.spacing, axis=(0, 1))
        return fu, fv

    def to_csv(self, path) -> None:
        g = self.grid
        grid = [*float_text([g.u_min, g.u_max, g.v_min, g.v_max]), str(g.nu), str(g.nv),
                *float_text([g.u0, g.v0])]
        head = {"space": self.space, "c": float_text(self.c)[0], "algebra": self.kind.value,
                "grid": " ".join(grid), **dict(sorted(self.provenance.items()))}
        # one line per value: a formula may span lines in the INI file
        preamble = "".join(f"# {key}: {' '.join(str(val).split())}\n" for key, val in head.items())
        columns = dict(zip(MESH_CSV_COLUMNS[2:], np.moveaxis(self.nodes, -1, 0)))
        write_node_table(path, g, columns, preamble)

    @classmethod
    def from_csv(cls, path) -> "SurfaceMesh":
        """Read a mesh written by to_csv, with CRLF or LF line endings.

        A header, metadata line, row or cell that does not fit raises
        ValueError, as does a row whose u or v is not the grid node of its
        position to within 1e-3 of the grid spacing (to_csv writes them
        exactly; the margin admits hand-typed decimals).
        """
        meta = {}

        def data_lines(fh):
            for line in fh:
                if line.startswith("#"):
                    key, _, val = line[1:].partition(":")
                    meta[key.strip()] = val.strip()
                elif line.strip():
                    yield line

        with open(path) as fh:
            lines = data_lines(fh)
            header = next(lines, "").strip().split(",")
            if tuple(header) != MESH_CSV_COLUMNS:
                raise ValueError(f"unexpected mesh columns {header}")
            for req in ("space", "c", "algebra", "grid"):
                if req not in meta:
                    raise ValueError(f"mesh file missing '{req}' metadata")
            gparts = meta["grid"].split()
            if len(gparts) != 8:
                raise ValueError(f"grid metadata needs 8 fields, got {len(gparts)}")
            grid = DomainGrid(
                *map(float, gparts[:4]), *map(int, gparts[4:6]), *map(float, gparts[6:])
            )
            n = grid.nu * grid.nv
            # the rows stream into one array; np.loadtxt warns on empty input
            first = next(lines, None)
            data = np.empty((0, len(MESH_CSV_COLUMNS))) if first is None else np.loadtxt(
                itertools.chain([first], lines), delimiter=",", ndmin=2, max_rows=n + 1
            )
        if len(data) > n:
            raise ValueError("mesh file has more rows than the grid admits")
        if len(data) < n:
            raise ValueError(f"mesh file truncated: expected {n} rows, got {len(data)}")
        if data.shape[1] != len(MESH_CSV_COLUMNS):
            raise ValueError(
                f"mesh rows need {len(MESH_CSV_COLUMNS)} fields, got {data.shape[1]}"
            )
        nodes = np.ascontiguousarray(data[:, 2:]).reshape(grid.nu, grid.nv, 4)
        kind = Kind(meta["algebra"])
        provenance = {
            k: v for k, v in meta.items() if k not in ("space", "c", "algebra", "grid")
        }
        mesh = cls(
            grid=grid, nodes=nodes, kind=kind, space=meta["space"],
            c=float(meta["c"]), provenance=provenance,
        )
        uv = data[:, :2].reshape(grid.nu, grid.nv, 2)
        want = np.stack(np.meshgrid(grid.u_nodes, grid.v_nodes, indexing="ij"), axis=-1)
        off = ~(np.abs(uv - want) <= 1e-3 * np.array(mesh.spacing)).all(axis=-1)  # NaN is off
        if off.any():
            i, j = np.argwhere(off)[0]
            raise ValueError(
                f"mesh row {i * grid.nv + j + 1} has (u, v) = ({', '.join(float_text(uv[i, j]))})"
                f" where the grid node is ({', '.join(float_text(want[i, j]))})"
            )
        return mesh


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
