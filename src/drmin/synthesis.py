"""Surface synthesis: integrate component data into a coordinate mesh.

The coordinate tangents are f_u = 2 Re(A(f) psi), f_v = 2 Im(A(f) psi),
where A is the frame matrix evaluated along the (unknown) surface itself,
so each grid line is an ODE in the four coordinates.  The mesh is built
by classic RK4 marching: first along the u-row through the base point,
then along all v-columns at once, as one stacked state.  Re-marching in
the transposed order gives an independent integrability check: for
genuine solutions the two meshes agree to integrator accuracy, for
corrupted data they visibly diverge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import Kind
from .expr import EvalError, WeierstrassData, evaluate_grid
from .spaces import Point, SpaceModel, frame_matrix
from .weierstrass import (
    DomainGrid,
    ValidationReport,
    ValidationTolerances,
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
        preamble = "".join(f"# {key}: {val}\n" for key, val in head.items())
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


def tangent_field(
    s: SpaceModel, w: WeierstrassData, p, u, v
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate tangents (f_u, f_v) at parameters (u, v) and positions p.

    p has shape (..., 4); u and v broadcast against its leading shape.
    Raises the EvalError of the first node (row-major) where psi fails.
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape[:-1]
    ev = evaluate_grid(w.psi, np.broadcast_to(u, shape), np.broadcast_to(v, shape), w.kind)
    ev.raise_first()
    psi = np.stack([np.stack(val, axis=-1) for val in ev.values], axis=-2)  # (..., 4, 2): re, im
    f = 2.0 * (frame_matrix(s, p)[..., :, :, None] * psi[..., None, :, :]).sum(axis=-2)
    return f[..., 0], f[..., 1]


def _rk4(rhs, y, coords, name: str) -> np.ndarray:
    """RK4 states at every value of coords, starting from y at coords[0]."""
    states = [y]
    for a, b in zip(coords[:-1], coords[1:]):
        h = b - a
        try:
            k1 = rhs(y, a)
            k2 = rhs(y + 0.5 * h * k1, a + 0.5 * h)
            k3 = rhs(y + 0.5 * h * k2, a + 0.5 * h)
            k4 = rhs(y + h * k3, b)
        except EvalError as exc:
            raise StepFailureError(f"evaluation failed during marching: {exc}") from exc
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise StepFailureError(f"non-finite state at {name} = {b!r}")
        states.append(y)
    return np.stack(states)


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
        # march out both ways from the base node along the given axis,
        # with the other parameter held at fixed (a scalar or one per line)
        def rhs(y, x):
            uv = (x, fixed) if axis == 0 else (fixed, x)
            return tangent_field(s, w, y, *uv)[axis]

        coords, k = nodes[axis], base[axis]
        name = "uv"[axis]
        ahead = _rk4(rhs, state, coords[k:], name)
        behind = _rk4(rhs, state, coords[k::-1], name)
        return np.concatenate([behind[:0:-1], ahead])

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
    tolerances: ValidationTolerances | None = None,
) -> SurfaceMesh:
    """Build the surface mesh from validated component data.

    Unless force is set, the data is validated first (or a precomputed
    report is honored) and refused on failure.
    """
    f0 = f0 or Point(0.0, 0.0, 0.0, 0.0)
    if not force:
        if report is None:
            report = validate(s, w, grid, tolerances)
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


def mesh_tangent_consistency(s: SpaceModel, w: WeierstrassData, mesh: SurfaceMesh) -> float:
    """Interior sup gap between central-difference mesh tangents and tangent_field."""
    g = mesh.grid
    inner = (slice(1, -1), slice(1, -1))
    fu, fv = tangent_field(
        s, w, mesh.nodes[inner], g.u_nodes[1:-1, None], g.v_nodes[None, 1:-1]
    )
    fu_fd, fv_fd = mesh.tangents()
    return float(np.maximum(np.abs(fu_fd[inner] - fu).max(), np.abs(fv_fd[inner] - fv).max()))
