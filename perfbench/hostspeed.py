"""Host-speed reference for scaling measured times.

The speed of a shared host drifts by up to 2x over seconds to tens of
seconds, slowing the whole interpreter.  Right before each timed op (and
inside each set-up probe) the benchmark times a fixed pure-Python kernel
that does not touch drmin, and reports times scaled to the speed at which
that kernel takes ``REF_KERNEL_S``:

    reported = wall * REF_KERNEL_S / kernel

The kernel resembles drmin's hot loops (recursive evaluation of an
expression tree into small frozen objects), so that host slowdowns hit it
about as hard as they hit drmin.  Raw wall and kernel times are kept in
the run record.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

REF_KERNEL_S = 0.003
KERNEL_POINTS = 12


@dataclass(frozen=True, slots=True)
class _Num:
    re: float
    im: float


@dataclass(frozen=True, slots=True)
class _Node:
    op: str
    a: object
    b: object


def _build(rng: random.Random, depth: int):
    if depth == 0:
        return _Num(rng.random(), rng.random())
    return _Node(rng.choice("+-*"), _build(rng, depth - 1), _build(rng, depth - 1))


def _evaluate(node, x: float) -> _Num:
    if isinstance(node, _Num):
        return _Num(node.re * x, node.im)
    a, b = _evaluate(node.a, x), _evaluate(node.b, x)
    if node.op == "+":
        return _Num(a.re + b.re, a.im + b.im)
    if node.op == "-":
        return _Num(a.re - b.re, a.im - b.im)
    return _Num(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


_TREE = _build(random.Random(0), 7)


def kernel_seconds() -> float:
    """Best of two timings of the reference kernel."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        for k in range(KERNEL_POINTS):
            _evaluate(_TREE, 0.5 + 0.01 * k)
        best = min(best, time.perf_counter() - t0)
    return best
