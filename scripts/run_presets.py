#!/usr/bin/env python3
"""Run the full pipeline on every built-in preset and print a summary table.

For each preset: validate, synthesize, check path independence, compare
against the closed-form reference, and verify the mesh a posteriori.
"""

import argparse
import time

from drmin.expr import WeierstrassData
from drmin.presets import PRESETS, reference_error
from drmin.synthesis import path_independence, synthesize
from drmin.verify import verify_mesh
from drmin.weierstrass import validate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default=None, help="override resolution, e.g. 51x51")
    args = ap.parse_args()

    header = (
        f"{'preset':<24} {'harm sup':>10} {'conf sup':>10} {'path gap':>10} "
        f"{'ref err':>10} {'tension':>10} {'character':>10} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, p in sorted(PRESETS.items()):
        t0 = time.perf_counter()
        grid = p.grid
        if args.grid:
            nu, nv = (int(x) for x in args.grid.lower().split("x"))
            grid = grid.with_resolution(nu, nv)
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
        assert vrep.passed and rep.passed, name


if __name__ == "__main__":
    main()
