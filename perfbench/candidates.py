"""Seeded screening candidates: preset quadruples, most of them perturbed.

Candidates come in blocks of four, one per built-in preset, so every run
screens the same mix of spaces and algebras.  The blocks are stratified
by perturbation size as well: in each block one seeded slot keeps its
preset data unchanged (these must PASS), and the other three add random
formulas, drawn from the whole component grammar, of depth 2 to one
component, of depth 3 to one component, and of depth 3 to two components.
The cost of validating grows with formula size, so a fixed mix of sizes
keeps runs with different seeds comparable.  Perturbed data usually FAILs
and some of it has masked nodes (poles on grid lines, zero divisors, the
``ln`` domain).

One kind of draw is redrawn: a formula that would hand ``exp``, ``sin``,
``cos``, ``sinh`` or ``cosh`` an argument of size above ``ARG_LIMIT`` (or a
pole) at a grid node.  drmin lets the ``OverflowError`` of such a call
escape ``validate`` (ROADMAP item 4), so the op would fail at random
positions of a timed run.  The guard evaluates the formula over the grid
with numpy, independently of drmin, so the candidates do not depend on
the code under test.  The known defect is shown instead by a fixed probe
in every screening run (``workloads.overflow_probe``), and the number of
redrawn formulas goes in the run record.
"""

from __future__ import annotations

import random

import numpy as np

from drmin.presets import PRESETS

# some literals sit on grid lines of u in [1, 2], v in [-1, 1], so that
# differences such as (u - 1.5) vanish at nodes and give poles
LITERALS = ("0.25", "0.5", "1", "1.5", "2", "3")
OPERATORS = ("+", "-", "*", "/")
POWERS = (-3, -2, -1, 2, 3)
FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh", "conj")
COEFFICIENTS = ("0.001", "0.01", "0.1")
# per block: None keeps the preset, else (components perturbed, formula depth)
SIZES = (None, (1, 2), (1, 3), (2, 3))
# |re| + |im| of a function argument above which exp, sin, cos, sinh or
# cosh may overflow a double (at about 709.78) in either algebra
ARG_LIMIT = 700.0
# a divisor whose norm is this small relative to its size counts as a pole
POLE_RTOL = 1e-6
MAX_DRAWS = 1000


def random_formula(rng: random.Random, depth: int, unit: str):
    """A random formula tree of at most ``depth`` nested operations.

    Leaves are strings; inner nodes are ``(op, left, right)``,
    ``("^", base, n)`` or ``(function, argument)``.
    """
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(("u", "v", unit, rng.choice(LITERALS)))
    roll = rng.random()
    if roll < 0.5:
        left = random_formula(rng, depth - 1, unit)
        right = random_formula(rng, depth - 1, unit)
        return (rng.choice(OPERATORS), left, right)
    if roll < 0.65:
        return ("^", random_formula(rng, depth - 1, unit), rng.choice(POWERS))
    return (rng.choice(FUNCTIONS), random_formula(rng, depth - 1, unit))


def render(tree) -> str:
    """The formula text drmin parses."""
    if isinstance(tree, str):
        return tree
    if len(tree) == 2:
        return f"{tree[0]}({render(tree[1])})"
    op, a, b = tree
    if op == "^":
        return f"({render(a)})^{b}"
    return f"({render(a)} {op} {render(b)})"


class _Unsafe(Exception):
    """A function argument may overflow at some grid node."""


def _mul(x, y, sigma):
    (a, b), (c, d) = x, y
    return a * c + sigma * b * d, a * d + b * c


def _inv(x, sigma):
    """The inverse, NaN at poles and (paracomplex) near the null cone."""
    c, d = x
    m = c * c - sigma * d * d
    pole = np.abs(m) <= POLE_RTOL * (c * c + d * d)
    m = np.where(pole, np.nan, m)
    return c / m, -d / m


def _call(fn, x, sigma):
    a, b = x
    if fn == "conj":
        return a, -b
    if fn != "ln":
        size = np.abs(a) + np.abs(b)
        if not np.all(np.isfinite(size)) or np.max(size) > ARG_LIMIT:
            raise _Unsafe
    if sigma < 0:  # complex
        w = getattr(np, "log" if fn == "ln" else fn)(a + 1j * b)
        return w.real, w.imag
    p, q = a + b, a - b  # paracomplex: lift through the split coordinates
    if fn == "ln":
        ok = a > np.abs(b)
        p, q = np.where(ok, p, np.nan), np.where(ok, q, np.nan)
    f = getattr(np, "log" if fn == "ln" else fn)
    fp, fq = f(p), f(q)
    return 0.5 * (fp + fq), 0.5 * (fp - fq)


def _evaluate(tree, u, v, sigma):
    """(re, im) arrays of the formula at the grid nodes."""
    if isinstance(tree, str):
        if tree == "u":
            return u, np.zeros_like(u)
        if tree == "v":
            return v, np.zeros_like(v)
        if tree in ("i", "tau"):
            return np.zeros_like(u), np.ones_like(u)
        return np.full_like(u, float(tree)), np.zeros_like(u)
    if len(tree) == 2:
        return _call(tree[0], _evaluate(tree[1], u, v, sigma), sigma)
    op, a, b = tree
    x = _evaluate(a, u, v, sigma)
    if op == "^":
        if b < 0:
            x = _inv(x, sigma)
        out = np.ones_like(u), np.zeros_like(u)
        for _ in range(abs(b)):
            out = _mul(out, x, sigma)
        return out
    y = _evaluate(b, u, v, sigma)
    if op == "+":
        return x[0] + y[0], x[1] + y[1]
    if op == "-":
        return x[0] - y[0], x[1] - y[1]
    if op == "*":
        return _mul(x, y, sigma)
    return _mul(x, _inv(y, sigma), sigma)


def overflow_safe(tree, u, v, sigma) -> bool:
    """Whether no function argument of the formula can overflow at the nodes.

    The derivative trees drmin validates call the same functions on the
    same arguments, so checking the formula itself covers them.
    """
    try:
        with np.errstate(all="ignore"):
            _evaluate(tree, u, v, sigma)
    except _Unsafe:
        return False
    return True


def candidate_blocks(seed: int, count: int, resolution: int):
    """``count`` blocks of (preset name, psi texts, perturbed) triples, and
    the number of formulas redrawn by the overflow guard."""
    rng = random.Random(seed)
    names = sorted(PRESETS)
    nodes = {}
    for name in names:
        grid = PRESETS[name].grid.with_resolution(resolution, resolution)
        u, v = np.meshgrid(grid.u_nodes, grid.v_nodes, indexing="ij")
        nodes[name] = (u, v, PRESETS[name].algebra.sigma)
    blocks = []
    redrawn = 0
    for _ in range(count):
        order = names[:]
        rng.shuffle(order)
        sizes = list(SIZES)
        rng.shuffle(sizes)
        block = []
        for name, size in zip(order, sizes):
            preset = PRESETS[name]
            texts = list(preset.psi_texts)
            if size is not None:
                components, depth = size
                unit = preset.algebra.unit_symbol
                for k in rng.sample(range(4), components):
                    for _ in range(MAX_DRAWS):
                        extra = random_formula(rng, depth, unit)
                        if overflow_safe(extra, *nodes[name]):
                            break
                        redrawn += 1
                    else:
                        raise RuntimeError("no overflow-safe formula drawn")
                    texts[k] = f"({texts[k]}) + {rng.choice(COEFFICIENTS)}*{render(extra)}"
            block.append((name, tuple(texts), size is not None))
        blocks.append(block)
    return blocks, redrawn
