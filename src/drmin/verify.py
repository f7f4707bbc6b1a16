"""A-posteriori verification of synthesized meshes.

Everything here works from mesh coordinates, the coordinate metric, and
the finite-difference Christoffel oracle only; the symbolic derivatives
used during validation and synthesis never enter.  This makes the module
an end-to-end independent check of the whole pipeline: sign-convention
bugs that are self-consistent upstream show up here as conformality
defects or non-vanishing tension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Kind
from .expr import WeierstrassData, evaluate_grid
from .spaces import SpaceModel, christoffel_at, metric_at
from .synthesis import SurfaceMesh
from .weierstrass import conformal_density, write_node_table

DEGENERACY_BAND_SCALE = 1e-10


def causal_character(E, F, G, band_scale: float = DEGENERACY_BAND_SCALE):
    """'spacelike', 'timelike' or 'degenerate' from the first fundamental form.

    E, F, G may be arrays; then the result is an object array of labels
    of the same shape.
    """
    det = E * G - F * F
    band = band_scale * (1.0 + E * E + G * G)
    out = np.where(np.abs(det) <= band, "degenerate", np.where(det < 0.0, "timelike", "spacelike"))
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
    Vanishing tension is minimality for a conformal map.
    """
    du, dv = mesh.spacing
    n = mesh.nodes
    sign = 1.0 if mesh.kind is Kind.COMPLEX else -1.0
    mid = n[1:-1, 1:-1]
    fuu = (n[2:, 1:-1] - 2.0 * mid + n[:-2, 1:-1]) / (du * du)
    fvv = (n[1:-1, 2:] - 2.0 * mid + n[1:-1, :-2]) / (dv * dv)
    fu, fv = (f[1:-1, 1:-1] for f in mesh.tangents())
    quad = np.empty_like(mid)
    for i, row in enumerate(mid):  # row by row keeps the Christoffel intermediates small
        gamma = christoffel_at(s, row)
        quad[i] = np.einsum("kijl,kj,kl->ki", gamma, fu[i], fu[i]) + sign * np.einsum(
            "kijl,kj,kl->ki", gamma, fv[i], fv[i]
        )
    out = np.full(n.shape, np.nan)
    out[1:-1, 1:-1] = fuu + sign * fvv + quad
    return out


@dataclass
class VerificationReport:
    mesh: SurfaceMesh
    space: str
    pullbacks: np.ndarray  # (nu, nv, 3)
    characters: np.ndarray  # (nu, nv) of strings
    tension: np.ndarray  # (nu, nv, 4), NaN on boundary
    density_gap: float | None  # sup |2*cond_i - E| over the interior, if psi given
    conformality_tol: float
    tension_tol: float

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
        # written as "not <=" so that NaN fails
        if not self.conformality_defect <= self.conformality_tol:
            out.append(
                f"conformality defect {self.conformality_defect:.3e} exceeds "
                f"{self.conformality_tol:.1e}"
            )
        if not self.tension_sup <= self.tension_tol:
            out.append(
                f"tension sup-norm {self.tension_sup:.3e} exceeds {self.tension_tol:.1e}"
            )
        if self.density_gap is not None and not self.density_gap <= self.conformality_tol:
            out.append(
                f"conformal density mismatch {self.density_gap:.3e} exceeds "
                f"{self.conformality_tol:.1e}"
            )
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()

    def summary(self) -> str:
        lines = [
            f"verification report ({self.space}, {self.mesh.grid.nu}x{self.mesh.grid.nv} mesh)",
            f"  causal character     : {self.interior_character}",
            f"  conformality defect  : {self.conformality_defect:.6e}",
            f"  tension sup-norm     : {self.tension_sup:.6e}",
        ]
        if self.density_gap is not None:
            lines.append(f"  density identity gap : {self.density_gap:.6e}")
        if self.passed:
            lines.append("  verdict: PASS")
        else:
            lines.append("  verdict: FAIL")
            for reason in self.failures():
                lines.append(f"    - {reason}")
        return "\n".join(lines)

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


def verify_mesh(
    s: SpaceModel,
    mesh: SurfaceMesh,
    w: WeierstrassData | None = None,
    conformality_tol: float = 1e-2,
    tension_tol: float = 1e-2,
) -> VerificationReport:
    """Bundle pullback, causal character and tension checks on a mesh.

    When the component data is supplied, the report additionally checks
    the conformal-density identity 2 * density = E, which ties the
    pointwise validation route to the synthesized geometry.
    """
    if mesh.space != s.name:
        raise ValueError(f"mesh was synthesized in {mesh.space}, not {s.name}")
    if mesh.grid.nu < 3 or mesh.grid.nv < 3:
        raise ValueError(
            f"verification needs at least 3x3 nodes (an interior), "
            f"got {mesh.grid.nu}x{mesh.grid.nv}"
        )
    pb = pullback(s, mesh)
    chars = causal_character(*np.moveaxis(pb, -1, 0))
    tension = tension_residual(s, mesh)
    density_gap = None
    if w is not None:
        g = mesh.grid
        ev = evaluate_grid(w.psi, g.u_nodes[1:-1, None], g.v_nodes[None, 1:-1], w.kind)
        ev.raise_first()
        dens = conformal_density(s, w.kind, ev.values)
        density_gap = float(np.abs(2.0 * dens - pb[1:-1, 1:-1, 0]).max())
    return VerificationReport(
        mesh=mesh,
        space=s.name,
        pullbacks=pb,
        characters=chars,
        tension=tension,
        density_gap=density_gap,
        conformality_tol=conformality_tol,
        tension_tol=tension_tol,
    )
