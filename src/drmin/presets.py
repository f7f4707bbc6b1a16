"""Run configurations, and the built-in surface datasets.

A run is one frozen RunConfig, whether it comes from an INI file or from
one of the four ready-to-run presets, two per ambient space, covering
both causal characters.  Each preset ships the closed-form coordinate
fields of the surface it integrates to, stored as expression strings in
(u, v) and checked against the marched mesh by the CLI and the test
suite.  The closed forms were derived by substituting into the tangent
field and integrating by hand.  Each is written as literal text for its
preset's f0, c and base point, with the general formula in a comment
above the preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr
from .algebra import Kind
from .expr import ExprError, WeierstrassData
from .mesh import DomainGrid
from .spaces import Point, SpaceKind, SpaceModel
from .weierstrass import ValidationTolerances


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    space: SpaceKind
    c: float
    algebra: Kind
    grid: DomainGrid
    psi_texts: tuple[str, str, str, str]
    f0: Point
    tolerances: ValidationTolerances = ValidationTolerances()
    out_dir: Path = Path(".")
    name: str = ""
    description: str = ""
    reference_texts: tuple[str, str, str, str] | None = None  # closed-form x, y, z, t

    def model(self) -> SpaceModel:
        return SpaceModel(self.space, self.c)

    def weierstrass(self) -> WeierstrassData:
        try:
            return WeierstrassData.from_strings(self.psi_texts, self.algebra)
        except ExprError as exc:
            raise ConfigError(f"bad component formula: {exc}") from exc


_DEFAULT_GRID = DomainGrid(1.0, 2.0, -1.0, 1.0, 101, 101, 1.0, 0.0)


# every closed form passes through f0 = (x0, y0, z0, t0) at the base point (u0, v0) = (1, 0)
PRESETS = {
    p.name: p
    for p in (
        # x = x0 + 2(v - v0)/u0, y = y0, z = z0 - c*y0*(v - v0)/u0, t = t0 + 2 ln(u/u0)
        RunConfig(
            name="s41-timelike-basic",
            description="timelike surface in the first-kind space from paracomplex axis data",
            space=SpaceKind.FIRST, c=1.0, algebra=Kind.PARA, grid=_DEFAULT_GRID,
            psi_texts=("tau/u", "0", "0", "1/u"),
            f0=Point(0.0, 2.0, 0.0, 0.0),
            reference_texts=("2.0*v", "2.0", "-2.0*v", "2.0*ln(u)"),
        ),
        # x = y = x0 + sqrt(2)(v - v0)/u0 (needs x0 = y0), z = z0, t = t0 + 2 ln(u/u0)
        RunConfig(
            name="s41-timelike-diagonal",
            description="timelike surface in the first-kind space with equal first components",
            space=SpaceKind.FIRST, c=1.0, algebra=Kind.PARA, grid=_DEFAULT_GRID,
            psi_texts=("tau/(1.4142135623730951*u)", "tau/(1.4142135623730951*u)", "0", "1/u"),
            f0=Point(0.0, 0.0, 3.0, 0.0),
            reference_texts=("1.4142135623730951*v", "1.4142135623730951*v", "3.0", "2.0*ln(u)"),
        ),
        # x = x0 + 2(v - v0)/u0, y = y0, z = z0 - c*y0*(v - v0)/u0, t = t0 + 2 ln(u/u0)
        RunConfig(
            name="s43-spacelike-basic",
            description="spacelike surface in the second-kind space from complex axis data",
            space=SpaceKind.SECOND, c=1.0, algebra=Kind.COMPLEX, grid=_DEFAULT_GRID,
            psi_texts=("i/u", "0", "0", "1/u"),
            f0=Point(0.0, 2.0, 0.0, 0.0),
            reference_texts=("2.0*v", "2.0", "-2.0*v", "2.0*ln(u)"),
        ),
        # x = x0, y = y0, z = z0 + (v - v0)/u0, t = t0 + ln(u/u0)
        RunConfig(
            name="s43-timelike-vertical",
            description="timelike surface in the second-kind space moving along the center",
            space=SpaceKind.SECOND, c=1.0, algebra=Kind.PARA, grid=_DEFAULT_GRID,
            psi_texts=("0", "0", "tau/(2*u)", "1/(2*u)"),
            f0=Point(1.0, -1.0, 0.0, 0.0),
            reference_texts=("1.0", "-1.0", "v", "ln(u)"),
        ),
    )
}


def reference_fields(preset: RunConfig):
    """Parsed closed-form coordinate expressions of the preset surface."""
    return tuple(expr.parse(t, preset.algebra) for t in preset.reference_texts)


def reference_error(preset: RunConfig, mesh) -> float:
    """Max abs gap between a synthesized mesh and the preset closed forms."""
    g = mesh.grid
    ev = expr.evaluate_grid(
        reference_fields(preset), g.u_nodes[:, None], g.v_nodes[None, :], preset.algebra
    )
    ev.raise_first()
    ref = np.stack([re for re, _ in ev.values], axis=-1)
    return float(np.abs(mesh.nodes - ref).max())
