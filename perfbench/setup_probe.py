"""Time a fresh worker's set-up: import drmin and parse the workload's inputs.

Run by run.py in a new interpreter.  Prints the set-up seconds, scaled by
the host-speed kernel timed just before (see hostspeed.py), as its last
line.  Usage: python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import sys
import time
from pathlib import Path

from hostspeed import REF_KERNEL_S, kernel_seconds


def main():
    kernel = kernel_seconds()
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import argparse

    from workloads import WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    WORKLOADS[args.workload](args.seed)
    print(repr((time.perf_counter() - start) * REF_KERNEL_S / kernel))


if __name__ == "__main__":
    main()
