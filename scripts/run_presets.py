#!/usr/bin/env python3
"""Run the full pipeline on every built-in preset and print a summary table.

For each preset: validate, synthesize, check path independence, compare
against the closed-form reference, and verify the mesh a posteriori.
Every failed check is listed as "<preset>: <reason>" after the table, and
the script then exits 1.
"""

import argparse
import sys
import time

from drmin.expr import WeierstrassData
from drmin.presets import PRESETS, reference_error
from drmin.synthesis import path_independence, synthesize
from drmin.verify import verify_mesh
from drmin.weierstrass import validate


def resolution(text):
    """The (nu, nv) of an NUxNV argument; verify needs an interior, so both are at least 3."""
    try:
        nu, nv = (int(x) for x in text.lower().split("x"))
    except ValueError:
        nu = nv = 0
    if min(nu, nv) < 3:
        raise argparse.ArgumentTypeError(
            f"expected NUxNV with NU, NV >= 3, e.g. 51x51; got {text!r}"
        )
    return nu, nv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=resolution, default=None, help="override resolution, e.g. 51x51")
    args = ap.parse_args()

    header = (
        f"{'preset':<24} {'harm sup':>10} {'conf sup':>10} {'path gap':>10} "
        f"{'ref err':>10} {'tension':>10} {'character':>10} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    failures = []
    for name, p in sorted(PRESETS.items()):
        t0 = time.perf_counter()
        grid = p.grid
        if args.grid:
            grid = grid.with_resolution(*args.grid)
        w = WeierstrassData.from_strings(list(p.psi_texts), p.algebra)
        model = p.model()
        vrep = validate(model, w, grid)
        mesh = synthesize(model, w, grid, p.f0, report=vrep)
        gap = path_independence(model, w, mesh)
        err = reference_error(p, mesh)
        rep = verify_mesh(model, mesh, w)
        secs = time.perf_counter() - t0
        print(
            f"{name:<24} {vrep.harmonicity_sup:>10.2e} {vrep.conformality_sup:>10.2e} "
            f"{gap:>10.2e} {err:>10.2e} {rep.tension_sup:>10.2e} "
            f"{rep.interior_character:>10} {secs:>6.1f}"
        )
        failures += [f"{name}: {reason}" for reason in vrep.failures() + rep.failures()]
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
