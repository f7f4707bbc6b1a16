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

import csv
from dataclasses import dataclass, field

import numpy as np

from .algebra import Kind
from .expr import EvalError, WeierstrassData, evaluate
from .spaces import Point, SpaceModel, frame_matrix
from .weierstrass import (
    DomainGrid,
    ValidationReport,
    ValidationTolerances,
    validate,
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
        with open(path, "w", newline="") as fh:
            fh.write(f"# space: {self.space}\n")
            fh.write(f"# c: {self.c!r}\n")
            fh.write(f"# algebra: {self.kind.value}\n")
            fh.write(f"# grid: {g.u_min!r} {g.u_max!r} {g.v_min!r} {g.v_max!r} {g.nu} {g.nv} {g.u0!r} {g.v0!r}\n")
            for key, val in sorted(self.provenance.items()):
                fh.write(f"# {key}: {val}\n")
            writer = csv.writer(fh)
            writer.writerow(MESH_CSV_COLUMNS)
            u_nodes, v_nodes = g.u_nodes, g.v_nodes
            for i in range(g.nu):
                for j in range(g.nv):
                    writer.writerow(
                        [repr(float(u_nodes[i])), repr(float(v_nodes[j]))]
                        + [repr(float(x)) for x in self.nodes[i, j]]
                    )

    @classmethod
    def from_csv(cls, path) -> "SurfaceMesh":
        meta = {}
        rows = []
        with open(path, newline="") as fh:
            for line in fh:
                if line.startswith("#"):
                    key, _, val = line[1:].partition(":")
                    meta[key.strip()] = val.strip()
                    continue
                rows.append(line)
        if not rows:
            raise ValueError("mesh file has no data rows")
        reader = csv.reader(rows)
        header = next(reader)
        if tuple(header) != MESH_CSV_COLUMNS:
            raise ValueError(f"unexpected mesh columns {header}")
        for req in ("space", "c", "algebra", "grid"):
            if req not in meta:
                raise ValueError(f"mesh file missing '{req}' metadata")
        gparts = meta["grid"].split()
        grid = DomainGrid(
            float(gparts[0]), float(gparts[1]), float(gparts[2]), float(gparts[3]),
            int(gparts[4]), int(gparts[5]), float(gparts[6]), float(gparts[7]),
        )
        nodes = np.zeros((grid.nu, grid.nv, 4))
        count = 0
        for row in reader:
            if not row:
                continue
            i, j = divmod(count, grid.nv)
            if i >= grid.nu:
                raise ValueError("mesh file has more rows than the grid admits")
            nodes[i, j] = [float(x) for x in row[2:6]]
            count += 1
        if count != grid.nu * grid.nv:
            raise ValueError(
                f"mesh file truncated: expected {grid.nu * grid.nv} rows, got {count}"
            )
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
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape[:-1]
    uu, vv = np.broadcast_to(u, shape), np.broadcast_to(v, shape)
    psi = np.empty(shape + (4, 2))  # columns: re, im
    for n in np.ndindex(shape):
        psi[n] = [(c.re, c.im) for c in w.eval_components(float(uu[n]), float(vv[n]))]
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
        provenance={"f0": tuple(f0.as_array())},
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
