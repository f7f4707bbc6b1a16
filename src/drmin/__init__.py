"""Minimal (spacelike and timelike) surfaces in the two 4-dimensional
Lorentzian Damek-Ricci coordinate models, built from component data over
the complex or paracomplex scalar algebra and verified independently."""

from .algebra import Kind, Scalar
from .expr import WeierstrassData, parse
from .mesh import DomainGrid, SurfaceMesh
from .spaces import Point, SpaceKind, SpaceModel
from .synthesis import path_independence, synthesize
from .verify import verify_mesh
from .weierstrass import ValidationTolerances, validate

__all__ = [
    "Kind",
    "Scalar",
    "WeierstrassData",
    "parse",
    "Point",
    "SpaceKind",
    "SpaceModel",
    "SurfaceMesh",
    "path_independence",
    "synthesize",
    "verify_mesh",
    "DomainGrid",
    "ValidationTolerances",
    "validate",
]

__version__ = "0.1.0"
