"""What the three stages share: the grid, the mesh file and the verdict layout.

validate, synthesize and verify each read their own description of the
geometry (the L-table, the frame, the metric), and none of those lives
here.  This module holds only the rectangular parameter grid, the surface
mesh with its CSV file, the one node-table writer and float format of
every file drmin writes, and the one rule and layout of a verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Kind


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        for name in ("u_min", "u_max", "v_min", "v_max", "u0", "v0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for lo, hi in (("u_min", "u_max"), ("v_min", "v_max")):
            span = getattr(self, hi) - getattr(self, lo)
            if not math.isfinite(span):
                raise ValueError(f"span {hi} - {lo} must be finite, got {span!r}")
        if not (self.u_max > self.u_min and self.v_max > self.v_min):
            raise ValueError("degenerate rectangle")
        if self.nu < 2 or self.nv < 2:
            raise ValueError("need at least 2 nodes per direction")
        if self.nu * self.nv * 32 > np.iinfo(np.intp).max:  # the (nu, nv, 4) float64 nodes
            raise ValueError(f"{self.nu}x{self.nv} nodes are more than an array can hold")
        if not (self.u_min <= self.u0 <= self.u_max and self.v_min <= self.v0 <= self.v_max):
            raise ValueError("base point outside the rectangle")

    # built once per grid and shared by every caller, hence read-only
    @functools.cached_property
    def u_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(self.u_min, self.u_max, self.nu))

    @functools.cached_property
    def v_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(self.v_min, self.v_max, self.nv))

    @functools.cached_property
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
    """The text of every float drmin writes, row-major: repr of the Python float.

    Each distinct bit pattern is formatted once and its text shared by every
    place it occurs.  The key is the bit pattern, not float equality, so
    -0.0 keeps its sign beside 0.0; NaNs of any payload all read 'nan'.
    """
    a = np.ravel(np.asarray(values, dtype=float))
    bits, where = np.unique(a.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[where].tolist()


def write_node_table(path, grid: DomainGrid, columns: dict, preamble: str = "") -> None:
    """Write one CSV row per grid node, in row-major order: u, v, then columns.

    columns maps header names to (nu, nv) arrays: floats are written through
    float_text, one call per column, so each distinct value of a column is
    formatted once; object arrays of strings are written as they are.  Rows
    end in CRLF after the preamble; the text is joined one grid row at a
    time, never for the whole file.
    """
    u_text, v_text = float_text(grid.u_nodes), float_text(grid.v_nodes)
    cells = [[u for u in u_text for _ in v_text], v_text * grid.nu]
    cells += [c.ravel().tolist() if c.dtype == object else float_text(c)
              for c in columns.values()]
    nodes = map(",".join, zip(*cells))  # row-major, joined as each grid row is written
    with open(path, "w", newline="") as fh:
        fh.write(preamble + ",".join(["u", "v", *columns]) + "\r\n")
        for _ in range(grid.nu):
            fh.write("\r\n".join(itertools.islice(nodes, grid.nv)) + "\r\n")


def exceeds(name: str, value: float, limit: float) -> str | None:
    """The failure text of a sup-norm above its limit, or None; NaN exceeds every limit."""
    if not value <= limit:  # written as "not <=" so that NaN fails
        return f"{name} {value:.3e} exceeds {limit:.1e}"
    return None


def report_lines(title: str, rows: dict[str, str], failures: list[str]) -> list[str]:
    """A report summary: the title, one line per quantity, the verdict and its reasons."""
    lines = [title, *(f"  {label:<21}: {value}" for label, value in rows.items())]
    lines.append(f"  verdict: {'FAIL' if failures else 'PASS'}")
    lines.extend(f"    - {reason}" for reason in failures)
    return lines


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
        with open(path) as fh:
            # universal newlines leave only "\n"; splitlines would also break
            # at form feeds and the other Unicode line boundaries
            lines = fh.read().split("\n")
        # one pass: a "#" in column 0 is metadata, a blank line is skipped, the first
        # other line is the header (head and early: the keys and the first repeated
        # key seen before it) and every later one a data row, kept by its line number
        header, meta, rows = [""], {}, {}
        head = early = repeat = None
        for k, line in enumerate(lines, 1):
            if line.startswith("#"):
                key, _, val = (x.strip() for x in line[1:].partition(":"))
                if key not in meta:
                    meta[key] = val
                elif repeat is None:
                    repeat = f"mesh file repeats metadata key {key!r}"
            elif not line or line.isspace():
                continue
            elif head is None:
                header, head, early = line.strip().split(","), set(meta), repeat
            else:
                rows[k] = line
        if tuple(header) != MESH_CSV_COLUMNS:
            raise ValueError(f"unexpected mesh columns {header}")
        if early:
            raise ValueError(early)
        for req in ("space", "c", "algebra", "grid"):
            if req not in head:
                raise ValueError(f"mesh file missing '{req}' metadata")
        gparts = meta["grid"].split()
        if len(gparts) != 8:
            raise ValueError(f"grid metadata needs 8 fields, got {len(gparts)}")
        grid = DomainGrid(
            *map(float, gparts[:4]), *map(int, gparts[4:6]), *map(float, gparts[6:])
        )
        if repeat:
            raise ValueError(repeat)
        n = grid.nu * grid.nv
        try:
            # np.loadtxt warns on empty input
            data = np.empty((0, len(MESH_CSV_COLUMNS))) if not rows else np.loadtxt(
                rows.values(), delimiter=",", ndmin=2, max_rows=n + 1
            )
        except ValueError as exc:
            for k, line in rows.items():  # the first row np.loadtxt cannot read alone
                try:
                    width = np.loadtxt([line], delimiter=",", ndmin=2).shape[1]
                    fault = f"needs {len(MESH_CSV_COLUMNS)} fields, got {width}"
                except ValueError:
                    width, fault = None, "has a cell that is not a number"
                if width != len(MESH_CSV_COLUMNS):
                    raise ValueError(f"mesh line {k} {fault}: {line!r}") from None
            raise ValueError(str(exc)) from None
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
