#!/usr/bin/env python3
"""Measure convergence orders of the integrator and the verifier.

Synthesizes one preset over a sequence of grid refinements and reports
the observed decay rates of the closed-form synthesis error (expected
order 4 from RK4) and of the finite-difference tension and conformality
defects (expected order 2).
"""

import argparse
import math

from drmin.expr import WeierstrassData
from drmin.presets import PRESETS, reference_error
from drmin.synthesis import synthesize
from drmin.verify import verify_mesh


def node_counts(text):
    """The node counts of a comma-separated argument, each at least 3 (verify needs an
    interior) and above the last (an order is a log in base (n - 1) / (n_prev - 1)).
    """
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError:
        sizes = [0]
    if min(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(
            f"expected increasing node counts >= 3, e.g. 17,33,65; got {text!r}"
        )
    return sizes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="s41-timelike-basic", choices=sorted(PRESETS))
    ap.add_argument(
        "--grids", type=node_counts, default="17,33,65,129",
        help="comma-separated node counts, each roughly doubling the last",
    )
    args = ap.parse_args()

    p = PRESETS[args.preset]
    w = WeierstrassData.from_strings(list(p.psi_texts), p.algebra)

    rows = []
    for n in args.grids:
        mesh = synthesize(p.model(), w, p.grid.with_resolution(n, n), p.f0)
        err = reference_error(p, mesh)
        rep = verify_mesh(p.model(), mesh)
        rows.append((n, err, rep.tension_sup, rep.conformality_defect))

    print(f"preset: {args.preset}")
    print(f"{'n':>5} {'ref err':>12} {'order':>6} {'tension':>12} {'order':>6} "
          f"{'conf defect':>12} {'order':>6}")
    prev = None
    for row in rows:
        n, err, ten, conf = row
        if prev is None:
            print(f"{n:>5} {err:>12.3e} {'':>6} {ten:>12.3e} {'':>6} {conf:>12.3e}")
        else:
            h_ratio = (n - 1) / (prev[0] - 1)
            o_err = math.log(prev[1] / err, h_ratio)
            o_ten = math.log(prev[2] / ten, h_ratio)
            o_conf = math.log(prev[3] / conf, h_ratio)
            print(
                f"{n:>5} {err:>12.3e} {o_err:>6.2f} {ten:>12.3e} {o_ten:>6.2f} "
                f"{conf:>12.3e} {o_conf:>6.2f}"
            )
        prev = row


if __name__ == "__main__":
    main()
