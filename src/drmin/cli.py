"""Command-line front end.

Subcommands: validate, synthesize, verify, export, examples.  Runs are
described either by an INI config file or by a named built-in preset.
Exit codes form a stable contract: 0 pass, 1 mathematical failure,
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .algebra import Kind
from .expr import ExprError, WeierstrassData
from .presets import PRESETS, Preset, reference_error
from .spaces import Point, SpaceKind, SpaceModel
from .synthesis import (
    StepFailureError,
    SurfaceMesh,
    ValidationRefusedError,
    path_independence,
    synthesize,
)
from .verify import verify_mesh
from .weierstrass import DomainGrid, ValidationTolerances, float_text, validate

EXIT_PASS = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


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
    tolerances: ValidationTolerances
    out_dir: Path
    preset: Preset | None = None

    def model(self) -> SpaceModel:
        return SpaceModel(self.space, self.c)

    def weierstrass(self) -> WeierstrassData:
        try:
            return WeierstrassData.from_strings(self.psi_texts, self.algebra)
        except ExprError as exc:
            raise ConfigError(f"bad component formula: {exc}") from exc


_SCHEMA = {
    "space": {"model", "c"},
    "algebra": {"kind"},
    "domain": {"u_min", "u_max", "v_min", "v_max", "nu", "nv", "u0", "v0"},
    "psi": {"psi1", "psi2", "psi3", "psi4"},
    "initial": {"x", "y", "z", "t"},
    "tolerances": {"harmonicity", "conformality", "immersion_floor"},
    "output": {"directory"},
}
_OPTIONAL_SECTIONS = {"tolerances", "output", "initial"}


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(cp[section]) - _SCHEMA[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) {sorted(unknown)} in section [{section}]"
            )
    for section in set(_SCHEMA) - _OPTIONAL_SECTIONS:
        if section not in cp:
            raise ConfigError(f"missing config section [{section}]")

    def getf(section, key, default=None):
        if default is not None and key not in cp[section]:
            return default
        try:
            return float(cp[section][key])
        except KeyError as exc:
            raise ConfigError(f"missing key {key!r} in [{section}]") from exc
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [{section}] is not a number") from exc

    def geti(section, key):
        try:
            return int(cp[section][key])
        except KeyError as exc:
            raise ConfigError(f"missing key {key!r} in [{section}]") from exc
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [{section}] is not an integer") from exc

    model_name = cp["space"].get("model", "").strip()
    try:
        space = SpaceKind(model_name)
    except ValueError as exc:
        raise ConfigError(f"space model must be S41 or S43, got {model_name!r}") from exc
    kind_name = cp["algebra"].get("kind", "").strip().lower()
    try:
        algebra_kind = Kind(kind_name)
    except ValueError as exc:
        raise ConfigError(f"algebra kind must be complex or para, got {kind_name!r}") from exc
    try:
        grid = DomainGrid(
            getf("domain", "u_min"), getf("domain", "u_max"),
            getf("domain", "v_min"), getf("domain", "v_max"),
            geti("domain", "nu"), geti("domain", "nv"),
            getf("domain", "u0"), getf("domain", "v0"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from exc
    psi_texts = tuple(cp["psi"][f"psi{k}"] for k in (1, 2, 3, 4) if f"psi{k}" in cp["psi"])
    if len(psi_texts) != 4:
        raise ConfigError("section [psi] must define psi1..psi4")
    if "initial" in cp:
        f0 = Point(getf("initial", "x"), getf("initial", "y"),
                   getf("initial", "z"), getf("initial", "t"))
    else:
        f0 = Point(0.0, 0.0, 0.0, 0.0)
    tol = ValidationTolerances()
    if "tolerances" in cp:
        for key in (f.name for f in fields(tol)):
            val = getf("tolerances", key, getattr(tol, key))
            if not (math.isfinite(val) and val > 0.0):
                raise ConfigError(f"tolerance {key!r} must be finite and positive, got {val!r}")
            tol = replace(tol, **{key: val})
    out_dir = Path(cp["output"]["directory"]) if "output" in cp and "directory" in cp["output"] else Path(".")
    return RunConfig(
        space=space, c=getf("space", "c", 1.0), algebra=algebra_kind, grid=grid,
        psi_texts=psi_texts, f0=f0, tolerances=tol, out_dir=out_dir,
    )


def config_from_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    p = PRESETS[name]
    return RunConfig(
        space=p.space, c=p.c, algebra=p.algebra, grid=p.grid,
        psi_texts=p.psi_texts, f0=p.f0,
        tolerances=ValidationTolerances(), out_dir=Path("."), preset=p,
    )


def _resolve_config(args) -> RunConfig:
    if getattr(args, "preset", None):
        cfg = config_from_preset(args.preset)
    elif getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        raise ConfigError("either --config or --preset is required")
    if getattr(args, "grid", None):
        try:
            nu_s, nv_s = args.grid.lower().split("x")
            grid = cfg.grid.with_resolution(int(nu_s), int(nv_s))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad --grid spec {args.grid!r}; expected NUxNV") from exc
        cfg = replace(cfg, grid=grid)
    return cfg


# -- subcommands ---------------------------------------------------------


def cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    w = cfg.weierstrass()
    report = validate(cfg.model(), w, cfg.grid, cfg.tolerances)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "validation.csv"
    report.to_csv(csv_path)
    print(report.summary())
    print(f"per-node residuals written to {csv_path}")
    return EXIT_PASS if report.passed else EXIT_MATH_FAILURE


def cmd_synthesize(args) -> int:
    cfg = _resolve_config(args)
    w = cfg.weierstrass()
    model = cfg.model()
    report = validate(model, w, cfg.grid, cfg.tolerances)
    if not report.passed and not args.force:
        print(report.summary())
        print("refusing to synthesize from invalid data (use --force to override)")
        return EXIT_MATH_FAILURE
    if not report.passed:
        print("WARNING: synthesizing from data that failed validation (--force)")
        for reason in report.failures():
            print(f"  - {reason}")
    try:
        mesh = synthesize(model, w, cfg.grid, cfg.f0, report=report, force=True)
        gap = path_independence(model, w, mesh)
    except StepFailureError as exc:
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL_FAILURE
    mesh.provenance.update({f"psi{k+1}": cfg.psi_texts[k] for k in range(4)})
    out = Path(args.out) if args.out else cfg.out_dir / "mesh.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    mesh.to_csv(out)
    print(f"mesh written to {out}")
    print(f"path-independence discrepancy: {gap:.6e}")
    if cfg.preset is not None:
        err = reference_error(cfg.preset, mesh)
        print(f"closed-form max coordinate error: {err:.6e}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    try:
        mesh = SurfaceMesh.from_csv(args.mesh)
    except (OSError, ValueError) as exc:
        print(f"cannot read mesh file: {exc}")
        return EXIT_INPUT_ERROR
    if mesh.space != cfg.space.value:
        print(
            f"mesh file was synthesized in {mesh.space} but the configuration "
            f"names {cfg.space.value}; refusing to verify against the wrong geometry"
        )
        return EXIT_INPUT_ERROR
    if mesh.kind is not cfg.algebra:
        print(
            f"mesh algebra {mesh.kind.value} does not match configured "
            f"{cfg.algebra.value}"
        )
        return EXIT_INPUT_ERROR
    w = cfg.weierstrass()
    try:
        report = verify_mesh(cfg.model(), mesh, w)
    except ValueError as exc:
        print(f"cannot verify mesh: {exc}")
        return EXIT_INPUT_ERROR
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "verification.csv"
    report.to_csv(csv_path)
    print(report.summary())
    print(f"per-node report written to {csv_path}")
    return EXIT_PASS if report.passed else EXIT_MATH_FAILURE


_AXES = {"x": 0, "y": 1, "z": 2, "t": 3}


def cmd_export(args) -> int:
    try:
        mesh = SurfaceMesh.from_csv(args.mesh)
    except (OSError, ValueError) as exc:
        print(f"cannot read mesh file: {exc}")
        return EXIT_INPUT_ERROR
    out = Path(args.out) if args.out else Path(f"mesh.{args.format}")
    if args.format == "csv":
        mesh.to_csv(out)
        print(f"csv written to {out}")
        return EXIT_PASS
    axes = [a.strip() for a in (args.projection or "x,y,z").split(",")]
    if len(axes) != 3 or any(a not in _AXES for a in axes):
        print(f"bad projection {args.projection!r}: need 3 of x,y,z,t")
        return EXIT_INPUT_ERROR
    if len(set(axes)) != 3:
        print(f"bad projection {args.projection!r}: duplicate axis")
        return EXIT_INPUT_ERROR
    idx = [_AXES[a] for a in axes]
    scalar_idx = ({0, 1, 2, 3} - set(idx)).pop()
    g = mesh.grid
    with open(out, "w") as fh:
        fh.write(f"# projection {','.join(axes)}; vertex w holds coordinate "
                 f"{'xyzt'[scalar_idx]}\n")
        for row in mesh.nodes:
            fh.write(("v {} {} {} {}\n" * g.nv).format(*float_text(row[:, idx + [scalar_idx]])))
        for i in range(g.nu - 1):
            a = np.arange(i * g.nv + 1, (i + 1) * g.nv)  # 1-based first corners of row i's quads
            corners = np.stack([a, a + g.nv, a + g.nv + 1, a + 1], axis=-1)
            fh.write(("f {} {} {} {}\n" * (g.nv - 1)).format(*corners.ravel().tolist()))
    print(f"obj written to {out} ({g.nu * g.nv} vertices, {(g.nu - 1) * (g.nv - 1)} quads)")
    return EXIT_PASS


def cmd_examples(args) -> int:
    for name in sorted(PRESETS):
        p = PRESETS[name]
        print(f"{name}")
        print(f"  {p.description}")
        print(f"  space {p.space.value}, c = {p.c}, algebra {p.algebra.value}")
        print(f"  psi = ({', '.join(p.psi_texts)})")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drmin",
        description="validate, synthesize and verify minimal surfaces in the "
        "two 4-dimensional Lorentzian Damek-Ricci models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--preset", help="name of a built-in dataset (see 'examples')")
        p.add_argument("--grid", help="override grid resolution, e.g. 101x101")

    p = sub.add_parser("validate", help="run the pointwise validity checks")
    add_config_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synthesize", help="integrate the data into a surface mesh")
    add_config_args(p)
    p.add_argument("--force", action="store_true", help="synthesize even if validation fails")
    p.add_argument("--out", help="output mesh CSV path")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="independently verify a synthesized mesh")
    p.add_argument("mesh", help="mesh CSV file")
    add_config_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export a mesh as CSV or OBJ geometry")
    p.add_argument("mesh", help="mesh CSV file")
    p.add_argument("--format", choices=("csv", "obj"), default="obj")
    p.add_argument("--projection", help="three of x,y,z,t for OBJ vertices, e.g. x,z,t")
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("examples", help="list built-in presets")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExprError) as exc:
        print(f"input error: {exc}")
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
