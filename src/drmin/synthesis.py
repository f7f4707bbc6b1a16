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

        A header, metadata line, row or cell that does not fit raises ValueError.
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
        return cls(
            grid=grid, nodes=nodes, kind=kind, space=meta["space"],
            c=float(meta["c"]), provenance=provenance,
        )


def _rk4(s, w, y, runs, fixed, axis: int) -> list[np.ndarray]:
    """RK4 states along each coordinate run, all runs starting from y at the base node.

    y holds one state per stacked line, shape (..., 4); the other parameter
    is fixed (a scalar, or one value per line).  The frame's t row is
    constant, its x and y rows read t and its z row x, y and t, so one pass
    per level marches every step of every run, and np.add.accumulate sums
    a run's increments in marching order.  psi is evaluated once, on the
    base node and every later node and step midpoint a + 0.5*h.  A run
    fails at its first stage reading a node where psi fails or its first
    non-finite state, the first run first.
    """
    n = [len(c) - 1 for c in runs]
    steps = sum(n)
    x = np.concatenate([runs[0][:1], *(c[1:] for c in runs),
                        *(c[:-1] + 0.5 * np.diff(c) for c in runs)])
    x = x.reshape(-1, *[1] * (y.ndim - 1))
    ev = evaluate_grid(w.psi, *((x, fixed) if axis == 0 else (fixed, x)), w.kind)
    bad_row = ev.bad.reshape(len(x), -1).any(axis=1)
    # the lattice row of each stage of each step, run after run: node,
    # midpoint twice, next node; a run's first step starts at the base row 0
    nxt = np.arange(1, steps + 1)
    node = np.where(np.concatenate([np.arange(m) == 0 for m in n]), 0, nxt - 1)
    rows = np.stack([node, steps + nxt, steps + nxt, nxt])
    psi = np.stack([val[axis] for val in ev.values], axis=-1)[rows]
    h = (x[nxt] - x[node])[..., None]
    split = np.cumsum(n)[:-1]
    outs = [np.empty((m + 1, *y.shape)) for m in n]
    at = np.zeros((4, steps, *y.shape))  # the stage points, filled level by level

    def level(cols, frames):
        k = np.stack([2.0 * (a[..., cols, :, None] * p[..., None, :, None]).sum(axis=-2)[..., 0]
                      for a, p in zip(frames, psi)])
        inc = (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
        for out, part in zip(outs, np.split(inc, split)):
            out[..., cols] = np.add.accumulate(np.concatenate([y[None, ..., cols], part]))
        start = np.concatenate([out[:-1, ..., cols] for out in outs])  # each step's state
        at[0, ..., cols] = start
        at[1:3, ..., cols] = start + 0.5 * h * k[:2]
        at[3, ..., cols] = start + h * k[2]

    def frames():  # at most FRAME_POINTS stage points, or one stage, per call
        per = max(1, FRAME_POINTS // (steps * y[..., 0].size))
        return (a for j in range(0, 4, per) for a in frame_matrix(s, at[j:j + per]))

    level(slice(3, 4), [frame_matrix(s, y)] * 4)  # t: the frame's t row is constant
    level(slice(0, 2), frames())
    level(slice(2, 3), frames())
    for run, out, r in zip(runs, outs, np.split(rows, split, axis=1)):
        # per step: its four stages' psi rows, then the state it reaches
        blown = ~np.isfinite(out[1:]).all(axis=tuple(range(1, out.ndim)))
        events = np.column_stack([bad_row[r].T, blown])
        if events.any():
            i, j = divmod(int(events.argmax()), 5)
            if j == 4:
                raise StepFailureError(f"non-finite state at {'uv'[axis]} = {float(run[i + 1])!r}")
            exc = next(e for k, e in ev.errors() if k[0] == r[j, i])
            raise StepFailureError(f"evaluation failed during marching: {exc}") from exc
    return outs


def _march(s, w, grid: DomainGrid, f0, transposed: bool) -> np.ndarray:
    """(nu, nv, 4) mesh marched out from f0 at the base node.

    The base line runs along u (along v if transposed) through the base
    node; then every line crossing it is marched as one stacked state.
    """
    nodes = (grid.u_nodes, grid.v_nodes)
    base = grid.base_index
    first = 1 if transposed else 0  # the axis the base line runs along
    second = 1 - first

    def sweep(state, axis, fixed):
        # march out both ways from the base node along the given axis, with the
        # other parameter held at fixed (a scalar or one per line); the midpoints
        # are taken per direction, as reversed steps round differently
        coords, k = nodes[axis], base[axis]
        ahead, behind = _rk4(s, w, state, [coords[k:], coords[k::-1]], fixed, axis)
        return np.concatenate([behind[:0:-1], ahead])

    # a state that blows up, and every state marched on from it, is caught by
    # _rk4's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        line = sweep(np.asarray(f0, dtype=float), first, nodes[second][base[second]])
        sheet = sweep(line, second, nodes[first])
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
