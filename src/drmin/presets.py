"""Built-in surface datasets with machine-readable closed forms.

Four ready-to-run configurations, two per ambient space, covering both
causal characters.  Each ships the closed-form coordinate fields of the
surface it integrates to, stored as expression strings in (u, v) and
checked against the marched mesh by the CLI and the test suite.  The
closed forms were derived by substituting into the tangent field and
integrating by hand; free additive constants are realized through the
initial point, and couplings between them (the z-coordinate reference
absorbs a factor c * y0) are encoded rather than left symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .algebra import Kind
from .spaces import Point, SpaceKind, SpaceModel
from .weierstrass import DomainGrid


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    space: SpaceKind
    c: float
    algebra: Kind
    psi_texts: tuple[str, str, str, str]
    f0: Point
    grid: DomainGrid
    reference_texts: tuple[str, str, str, str]

    def model(self) -> SpaceModel:
        return SpaceModel(self.space, self.c)


_DEFAULT_GRID = DomainGrid(1.0, 2.0, -1.0, 1.0, 101, 101, 1.0, 0.0)


def _lin(const: float, slope: float, v0: float) -> str:
    """const + slope*(v - v0) as expression text."""
    return f"({const!r}) + ({slope!r})*(v - ({v0!r}))"


def _log(const: float, scale: float, u0: float) -> str:
    """const + scale*ln(u/u0) as expression text."""
    return f"({const!r}) + ({scale!r})*ln(u/({u0!r}))"


def _axis_preset(name, description, space, algebra, c, f0, grid) -> Preset:
    """psi = (unit/u, 0, 0, 1/u): translation surface over the u-axis pair."""
    u0, v0 = grid.base_point
    unit = algebra.unit_symbol
    return Preset(
        name=name,
        description=description,
        space=space,
        c=c,
        algebra=algebra,
        psi_texts=(f"{unit}/u", "0", "0", "1/u"),
        f0=f0,
        grid=grid,
        reference_texts=(
            _lin(f0.x, 2.0 / u0, v0),
            f"{f0.y!r}",
            _lin(f0.z, -c * f0.y / u0, v0),
            _log(f0.t, 2.0, u0),
        ),
    )


def _diagonal_preset(name, description, space, c, f0, grid) -> Preset:
    """psi1 = psi2 = tau/(sqrt(2) u), psi4 = 1/u; needs x0 = y0."""
    if f0.x != f0.y:
        raise ValueError("diagonal data keeps x - y constant at 0; need x0 = y0")
    u0, v0 = grid.base_point
    root2 = math.sqrt(2.0)
    slope = root2 / u0
    return Preset(
        name=name,
        description=description,
        space=space,
        c=c,
        algebra=Kind.PARA,
        psi_texts=(f"tau/({root2!r}*u)", f"tau/({root2!r}*u)", "0", "1/u"),
        f0=f0,
        grid=grid,
        reference_texts=(
            _lin(f0.x, slope, v0),
            _lin(f0.y, slope, v0),
            f"{f0.z!r}",
            _log(f0.t, 2.0, u0),
        ),
    )


def _vertical_preset(name, description, space, c, f0, grid) -> Preset:
    """psi3 = tau/(2u), psi4 = 1/(2u): motion in the central direction."""
    u0, v0 = grid.base_point
    return Preset(
        name=name,
        description=description,
        space=space,
        c=c,
        algebra=Kind.PARA,
        psi_texts=("0", "0", "tau/(2*u)", "1/(2*u)"),
        f0=f0,
        grid=grid,
        reference_texts=(
            f"{f0.x!r}",
            f"{f0.y!r}",
            _lin(f0.z, 1.0 / u0, v0),
            _log(f0.t, 1.0, u0),
        ),
    )


def build_presets() -> dict[str, Preset]:
    return {
        p.name: p
        for p in (
            _axis_preset(
                "s41-timelike-basic",
                "timelike surface in the first-kind space from paracomplex axis data",
                SpaceKind.FIRST,
                Kind.PARA,
                1.0,
                Point(0.0, 2.0, 0.0, 0.0),
                _DEFAULT_GRID,
            ),
            _diagonal_preset(
                "s41-timelike-diagonal",
                "timelike surface in the first-kind space with equal first components",
                SpaceKind.FIRST,
                1.0,
                Point(0.0, 0.0, 3.0, 0.0),
                _DEFAULT_GRID,
            ),
            _axis_preset(
                "s43-spacelike-basic",
                "spacelike surface in the second-kind space from complex axis data",
                SpaceKind.SECOND,
                Kind.COMPLEX,
                1.0,
                Point(0.0, 2.0, 0.0, 0.0),
                _DEFAULT_GRID,
            ),
            _vertical_preset(
                "s43-timelike-vertical",
                "timelike surface in the second-kind space moving along the center",
                SpaceKind.SECOND,
                1.0,
                Point(1.0, -1.0, 0.0, 0.0),
                _DEFAULT_GRID,
            ),
        )
    }


PRESETS = build_presets()


def reference_fields(preset: Preset):
    """Parsed closed-form coordinate expressions of the preset surface."""
    return tuple(expr.parse(t, preset.algebra) for t in preset.reference_texts)


def reference_error(preset: Preset, mesh) -> float:
    """Max abs gap between a synthesized mesh and the preset closed forms."""
    g = mesh.grid
    ev = expr.evaluate_grid(
        reference_fields(preset), g.u_nodes[:, None], g.v_nodes[None, :], preset.algebra
    )
    ev.raise_first()
    ref = np.stack([re for re, _ in ev.values], axis=-1)
    return float(np.abs(mesh.nodes - ref).max())
