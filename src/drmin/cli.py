"""Command-line front end.

Subcommands: validate, synthesize, verify, export, examples.  Runs are
described either by an INI config file or by a named built-in preset.
Exit codes form a stable contract: 0 pass, 1 mathematical failure,
2 input error, 3 numerical failure.  A command returns 0 or 1 from its
report and raises on any other outcome; main alone maps what it raises
to an exit code.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .algebra import Kind
from .expr import ExprError
from .mesh import DomainGrid, SurfaceMesh, float_text
from .presets import PRESETS, ConfigError, RunConfig, reference_error
from .spaces import Point, SpaceKind
from .synthesis import StepFailureError, ValidationRefusedError, path_independence, synthesize
from .verify import verify_mesh
from .weierstrass import ValidationTolerances, validate

EXIT_PASS = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


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
            val = float(cp[section][key])
        except KeyError as exc:
            raise ConfigError(f"missing key {key!r} in [{section}]") from exc
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [{section}] is not a number") from exc
        if not math.isfinite(val):
            raise ConfigError(f"key {key!r} in [{section}] must be finite, got {val!r}")
        return val

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
            if not val > 0.0:
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
    return PRESETS[name]


def _resolve_config(args) -> RunConfig:
    if args.preset:
        cfg = config_from_preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("either --config or --preset is required")
    if getattr(args, "grid", None):  # verify takes its grid from the mesh file
        try:
            nu, nv = map(int, args.grid.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad --grid spec {args.grid!r}: expected NUxNV") from exc
        try:
            cfg = replace(cfg, grid=cfg.grid.with_resolution(nu, nv))
        except ValueError as exc:
            raise ConfigError(f"bad --grid spec {args.grid!r}: {exc}") from exc
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
    if args.force and not report.passed:
        print("WARNING: synthesizing from data that failed validation (--force)")
        for reason in report.failures():
            print(f"  - {reason}")
    mesh = synthesize(model, w, cfg.grid, cfg.f0, report=report, force=args.force)
    gap = path_independence(model, w, mesh)
    mesh.provenance.update({f"psi{k+1}": cfg.psi_texts[k] for k in range(4)})
    out = Path(args.out) if args.out else cfg.out_dir / "mesh.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    mesh.to_csv(out)
    print(f"mesh written to {out}")
    print(f"path-independence discrepancy: {gap:.6e}")
    if cfg.reference_texts:
        err = reference_error(cfg, mesh)
        print(f"closed-form max coordinate error: {err:.6e}")
    return EXIT_PASS


def _read_mesh(path) -> SurfaceMesh:
    try:
        return SurfaceMesh.from_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read mesh file: {exc}") from exc


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    mesh = _read_mesh(args.mesh)
    w = cfg.weierstrass()
    try:
        report = verify_mesh(cfg.model(), mesh, w)
    except ValueError as exc:
        raise ConfigError(f"cannot verify mesh: {exc}") from exc
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "verification.csv"
    report.to_csv(csv_path)
    print(report.summary())
    print(f"per-node report written to {csv_path}")
    return EXIT_PASS if report.passed else EXIT_MATH_FAILURE


_AXES = {"x": 0, "y": 1, "z": 2, "t": 3}


def cmd_export(args) -> int:
    mesh = _read_mesh(args.mesh)
    g = mesh.grid
    bad = np.argwhere(~np.isfinite(mesh.nodes).all(axis=-1))
    if len(bad):
        u, v = float_text([g.u_nodes[bad[0, 0]], g.v_nodes[bad[0, 1]]])
        raise ConfigError(f"cannot export mesh: non-finite node at (u, v) = ({u}, {v})")
    out = Path(args.out) if args.out else Path(f"mesh.{args.format}")
    if args.format == "csv":
        mesh.to_csv(out)
        print(f"csv written to {out}")
        return EXIT_PASS
    axes = [a.strip() for a in (args.projection or "x,y,z").split(",")]
    if len(axes) != 3 or any(a not in _AXES for a in axes):
        raise ConfigError(f"bad projection {args.projection!r}: need 3 of x,y,z,t")
    if len(set(axes)) != 3:
        raise ConfigError(f"bad projection {args.projection!r}: duplicate axis")
    idx = [_AXES[a] for a in axes]
    scalar_idx = ({0, 1, 2, 3} - set(idx)).pop()
    with open(out, "w") as fh:
        fh.write(f"# projection {','.join(axes)}; vertex w holds coordinate "
                 f"{'xyzt'[scalar_idx]}\n")
        # each distinct value formatted once; the text joined one grid row at a time
        text = float_text(mesh.nodes[..., idx + [scalar_idx]])
        row = 4 * g.nv
        for k in range(0, len(text), row):
            fh.write(("v {} {} {} {}\n" * g.nv).format(*text[k:k + row]))
        # 1-based first corners of every quad, grid row after grid row
        a = np.arange(1, g.nu * g.nv + 1).reshape(g.nu, g.nv)[:-1, :-1, None]
        corners = (a + np.array([0, g.nv, g.nv + 1, 1])).reshape(g.nu - 1, -1).tolist()
        for quads in corners:
            fh.write(("f {} {} {} {}\n" * (g.nv - 1)).format(*quads))
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


@functools.cache
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

    p = sub.add_parser("validate", help="run the pointwise validity checks")
    add_config_args(p)
    p.add_argument("--grid", help="override grid resolution, e.g. 101x101")

    p = sub.add_parser("synthesize", help="integrate the data into a surface mesh")
    add_config_args(p)
    p.add_argument("--grid", help="override grid resolution, e.g. 101x101")
    p.add_argument("--force", action="store_true", help="synthesize even if validation fails")
    p.add_argument("--out", help="output mesh CSV path")

    p = sub.add_parser("verify", help="independently verify a synthesized mesh")
    p.add_argument("mesh", help="mesh CSV file")
    add_config_args(p)

    p = sub.add_parser("export", help="export a mesh as CSV or OBJ geometry")
    p.add_argument("mesh", help="mesh CSV file")
    p.add_argument("--format", choices=("csv", "obj"), default="obj")
    p.add_argument("--projection", help="three of x,y,z,t for OBJ vertices, e.g. x,z,t")
    p.add_argument("--out", help="output path")

    sub.add_parser("examples", help="list built-in presets")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call rather than bound into the once-built parser
    command = {"validate": cmd_validate, "synthesize": cmd_synthesize, "verify": cmd_verify,
               "export": cmd_export, "examples": cmd_examples}[args.command]
    try:
        return command(args)
    except ValidationRefusedError as exc:
        print(exc.report.summary())
        print("refusing to synthesize from invalid data (use --force to override)")
        return EXIT_MATH_FAILURE
    except StepFailureError as exc:
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL_FAILURE
    except (ConfigError, ExprError, OSError) as exc:  # OSError: an unreadable or unwritable path
        print(f"input error: {exc}")
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # a grid too large to hold
        print(f"input error: out of memory: {exc}")
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
