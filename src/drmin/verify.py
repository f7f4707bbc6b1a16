"""A-posteriori verification of synthesized meshes.

Everything here works from mesh coordinates, the coordinate metric, and
its Christoffel symbols from complex-step metric derivatives only; the
symbolic derivatives, the L-table and the frame never enter, and the
module imports only mesh, spaces and algebra.  This makes the module an
end-to-end independent check of the whole pipeline: sign-convention bugs
that are self-consistent upstream show up here as conformality defects
or non-vanishing tension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Kind
from .mesh import SurfaceMesh, exceeds, report_lines, write_node_table
from .spaces import SpaceModel, christoffel_at, conformal_density, metric_at

DEGENERACY_BAND_SCALE = 1e-10
# fixed absolute bounds on the interior sup-norms of the finite-difference defects
CONFORMALITY_TOL = 1e-2
TENSION_TOL = 1e-2
# node budget of one Christoffel call in tension_residual; it keeps the
# transient arrays of the four-point complex metric batch to a fixed size
CHRISTOFFEL_NODES = 256


def causal_character(E, F, G):
    """'spacelike', 'timelike' or 'degenerate' from the first fundamental form.

    A form with a NaN or infinite entry is 'undefined'.  E, F, G may be
    arrays; then the result is an object array of labels of the same shape.
    """
    # E, F, G scaled by the power of two of their largest magnitude, which is
    # exact: the test is that of the unscaled form, but det and the band no
    # longer overflow.  The band's 1, scaled, is inf for a form below about
    # 2**-512, and every such form is degenerate.
    _, top = np.frexp(np.maximum(np.maximum(np.abs(E), np.abs(F)), np.abs(G)))
    E, F, G = (np.ldexp(x, -top) for x in (E, F, G))
    det = E * G - F * F
    with np.errstate(over="ignore"):
        band = DEGENERACY_BAND_SCALE * (np.ldexp(1.0, -2 * top) + E * E + G * G)
    out = np.where(np.abs(det) <= band, "degenerate", np.where(det < 0.0, "timelike", "spacelike"))
    out = np.where(np.isfinite(E) & np.isfinite(F) & np.isfinite(G), out, "undefined")
    return out.astype(object) if out.ndim else str(out)


def pullback(s: SpaceModel, mesh: SurfaceMesh) -> np.ndarray:
    """Per-node (E, F, G) array of shape (nu, nv, 3).

    Central differences in the interior, one-sided on the boundary.
    """
    fu, fv = mesh.tangents()
    gm = metric_at(s, mesh.nodes)
    return np.stack(
        [np.einsum("...i,...ij,...j->...", a, gm, b) for a, b in ((fu, fu), (fu, fv), (fv, fv))],
        axis=-1,
    )


def tension_residual(s: SpaceModel, mesh: SurfaceMesh) -> np.ndarray:
    """Per-node coordinate tension field, NaN on the boundary ring.

    Spacelike (complex) surfaces use the elliptic combination
    f_uu + f_vv + Gamma(f_u, f_u) + Gamma(f_v, f_v); timelike (para)
    surfaces the hyperbolic one with minus signs on the v-terms.
    Vanishing tension is minimality for a conformal map.  Both Gamma
    terms are one contraction, in blocks of whole interior rows of at
    most CHRISTOFFEL_NODES nodes (one row when a row alone is longer).
    """
    du, dv = mesh.spacing
    n = mesh.nodes
    sign = 1.0 if mesh.kind is Kind.COMPLEX else -1.0
    mid = n[1:-1, 1:-1]
    fuu = (n[2:, 1:-1] - 2.0 * mid + n[:-2, 1:-1]) / (du * du)
    fvv = (n[1:-1, 2:] - 2.0 * mid + n[1:-1, :-2]) / (dv * dv)
    fu, fv = (f[1:-1, 1:-1] for f in mesh.tangents())
    quad = np.empty_like(mid)
    rows = max(1, CHRISTOFFEL_NODES // mid.shape[1])
    for i in range(0, len(mid), rows):
        block = slice(i, i + rows)
        a, b = fu[block], fv[block]
        q = a[..., :, None] * a[..., None, :] + sign * (b[..., :, None] * b[..., None, :])
        quad[block] = christoffel_at(s, mid[block], q)
    out = np.full(n.shape, np.nan)
    out[1:-1, 1:-1] = fuu + sign * fvv + quad
    return out


@dataclass
class VerificationReport:
    mesh: SurfaceMesh
    pullbacks: np.ndarray  # (nu, nv, 3)
    characters: np.ndarray  # (nu, nv) of strings
    tension: np.ndarray  # (nu, nv, 4), NaN on boundary
    density_gap: float | None  # sup |2*cond_i - E| over the interior, if psi given

    @property
    def interior(self) -> tuple[slice, slice]:
        return slice(1, self.mesh.grid.nu - 1), slice(1, self.mesh.grid.nv - 1)

    @property
    def conformality_defect(self) -> float:
        """Interior sup of |F| and |E - G| (spacelike) or |E + G| (timelike)."""
        si, sj = self.interior
        E = self.pullbacks[si, sj, 0]
        F = self.pullbacks[si, sj, 1]
        G = self.pullbacks[si, sj, 2]
        if self.mesh.kind is Kind.COMPLEX:
            diag = np.abs(E - G)
        else:
            diag = np.abs(E + G)
        return float(np.maximum(np.abs(F).max(), diag.max()))

    @property
    def tension_sup(self) -> float:
        si, sj = self.interior
        return float(np.abs(self.tension[si, sj]).max())

    @property
    def interior_character(self) -> str:
        si, sj = self.interior
        chars = set(self.characters[si, sj].ravel())
        if len(chars) == 1:
            return chars.pop()
        return "mixed"

    def failures(self) -> list[str]:
        out = []
        char = self.interior_character
        if char != self.mesh.causal_character:
            out.append(
                f"causal character {char!r} does not match the "
                f"{self.mesh.kind.value}-algebra expectation {self.mesh.causal_character!r}"
            )
        checks = [
            exceeds("conformality defect", self.conformality_defect, CONFORMALITY_TOL),
            exceeds("tension sup-norm", self.tension_sup, TENSION_TOL),
        ]
        if self.density_gap is not None:
            checks.append(exceeds("conformal density mismatch", self.density_gap, CONFORMALITY_TOL))
        out += filter(None, checks)
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()

    def summary(self) -> str:
        rows = {
            "causal character": self.interior_character,
            "conformality defect": f"{self.conformality_defect:.6e}",
            "tension sup-norm": f"{self.tension_sup:.6e}",
        }
        if self.density_gap is not None:
            rows["density identity gap"] = f"{self.density_gap:.6e}"
        g = self.mesh.grid
        title = f"verification report ({self.mesh.space}, {g.nu}x{g.nv} mesh)"
        return "\n".join(report_lines(title, rows, self.failures()))

    def to_csv(self, path) -> None:
        t = self.tension
        # a batched matmul sums the squares as the BLAS dot inside np.linalg.norm does
        with np.errstate(over="ignore"):
            norm = (t[..., None, :] @ t[..., :, None])[..., 0, 0]
        np.sqrt(norm, out=norm)
        norm[~np.isfinite(t).all(axis=-1)] = np.nan
        columns = dict(zip("EFG", np.moveaxis(self.pullbacks, -1, 0)))
        columns["char"] = self.characters
        columns["tension_norm"] = norm
        write_node_table(path, self.mesh.grid, columns)


def verify_mesh(s: SpaceModel, mesh: SurfaceMesh, w=None) -> VerificationReport:
    """Bundle pullback, causal character and tension checks on a mesh.

    When the component data w (an expr.WeierstrassData, read only through
    its kind and on_grid) is supplied, the report additionally checks
    the conformal-density identity 2 * density = E, which ties the
    pointwise validation route to the synthesized geometry.  A mesh whose
    header names another space or c than the model (or another algebra
    than the data) raises ValueError.
    """
    # the header's c is written by float_text, which round-trips exactly
    header = {"space": (mesh.space, s.name), "c": (mesh.c, s.c)}
    if w is not None:
        header["algebra"] = (mesh.kind.value, w.kind.value)
    mismatches = [f"{key} {have} vs {want}" for key, (have, want) in header.items()
                  if have != want]
    if mismatches:
        raise ValueError(
            f"mesh header does not match the configuration ({', '.join(mismatches)}); "
            "refusing to verify against the wrong geometry"
        )
    if mesh.grid.nu < 3 or mesh.grid.nv < 3:
        raise ValueError(
            f"verification needs at least 3x3 nodes (an interior), "
            f"got {mesh.grid.nu}x{mesh.grid.nv}"
        )
    # an overflowing or infinite node reads inf or NaN, which every verdict fails
    with np.errstate(all="ignore"):
        pb = pullback(s, mesh)
        chars = causal_character(*np.moveaxis(pb, -1, 0))
        tension = tension_residual(s, mesh)
    density_gap = None
    if w is not None:
        g = mesh.grid
        ev = w.on_grid(g.u_nodes[1:-1, None], g.v_nodes[None, 1:-1])
        ev.raise_first()
        dens = conformal_density(s, w.kind, ev.values)
        density_gap = float(np.abs(2.0 * dens - pb[1:-1, 1:-1, 0]).max())
    return VerificationReport(
        mesh=mesh,
        pullbacks=pb,
        characters=chars,
        tension=tension,
        density_gap=density_gap,
    )
