"""Differential tests: the grid evaluator against the per-node route.

``expr.evaluate_grid`` and ``validate`` evaluate psi over whole grids;
``expr.evaluate``, ``condition_i``, ``condition_ii`` and
``harmonicity_residual_generic`` do the same arithmetic one node at a
time through ``Scalar`` and serve as the oracle.  The failed nodes, their
messages and order, and the NaN pattern must be identical; values agree
to 1e-9 relative (numpy's exp, sinh, cosh may differ from math's in the
last bit).  Formulas are seeded and carry no overflow guard, and the
grids put poles, the null cone and the ln domain edges on nodes.

Derivative-built nodes of one build are shared, and so are the arrays
of equal constants.  The twin tests evaluate each tree again with no node
object in two places (``oracles.unshared``): the sharing may save work
but must not change a mask, a message or a bit of a value.
"""

import dataclasses
import gc
import math
import random

import numpy as np
import pytest

from drmin import expr
from drmin.algebra import Kind
from drmin.expr import (
    Add,
    Call,
    Const,
    Conj,
    Div,
    EvalError,
    Mul,
    Neg,
    Pow,
    Sub,
    Unit,
    Var,
    WeierstrassData,
    evaluate,
    evaluate_grid,
    parse,
    wirtinger_bar,
)
from drmin.mesh import DomainGrid
from drmin.presets import PRESETS, reference_error
from drmin.spaces import SpaceKind, SpaceModel
from drmin.synthesis import path_independence, synthesize
from drmin.verify import verify_mesh
from drmin.weierstrass import condition_i, condition_ii, l_table, validate
from oracles import (
    distinct_nodes,
    harmonicity_residual_generic,
    print_expr,
    unshared,
)

RTOL = 1e-9
# 9 nodes over [-1, 1]: u = 0, v = 0 and u = +/-v are nodes
EDGE_GRID = DomainGrid(-1, 1, -1, 1, 9, 9, 0, 0)
PRESET_GRID = DomainGrid(1, 2, -1, 1, 9, 9, 1, 0)
CONSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0, 0.001, 700.0, 1000.0)
HUGE = Call("exp", Const(700.0))  # 1e304: a product of two overflows to inf
FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh")


def random_tree(rng, depth):
    """A tree from the whole grammar, built so that it prints and reparses."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice([Const(rng.choice(CONSTANTS)), Var("u"), Var("v"), Unit(), HUGE])
    pick = rng.random()
    sub = lambda: random_tree(rng, depth - 1)  # noqa: E731
    if pick < 0.15:
        return Add(sub(), sub())
    if pick < 0.3:
        return Sub(sub(), sub())
    if pick < 0.45:
        return Mul(sub(), sub())
    if pick < 0.6:
        return Div(sub(), sub())
    if pick < 0.7:
        return Pow(sub(), rng.randint(-3, 3))
    if pick < 0.75:
        return Neg(sub())
    if pick < 0.8:
        return Conj(sub())
    return Call(rng.choice(FUNCTIONS), sub())


def random_formula(rng, kind, depth=3):
    """Formula text, parsed back so that every node carries its position."""
    return parse(print_expr(random_tree(rng, depth), kind), kind)


def per_node(trees, grid, kind):
    """The oracle: evaluate node by node, trees in order, stop at the first failure."""
    shape = (grid.nu, grid.nv)
    values = [np.zeros(shape + (2,)) for _ in trees]
    ok = np.ones(shape, dtype=bool)
    errors = []
    for i, u in enumerate(grid.u_nodes):
        for j, v in enumerate(grid.v_nodes):
            try:
                for k, t in enumerate(trees):
                    s = evaluate(t, float(u), float(v), kind)
                    values[k][i, j] = s.re, s.im
            except EvalError as exc:
                ok[i, j] = False
                errors.append(((i, j), str(exc)))
    return values, ok, errors


def assert_close(got, want, ok, what):
    """Equal NaN and inf pattern on ok nodes, finite values within RTOL."""
    got, want = got[ok], want[ok]
    assert np.array_equal(np.isnan(got), np.isnan(want)), f"{what}: NaN pattern"
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite & ~np.isnan(want)], want[~finite & ~np.isnan(want)]), (
        f"{what}: inf pattern"
    )
    gap = np.abs(got[finite] - want[finite])
    assert np.all(gap <= RTOL * (1.0 + np.abs(want[finite]))), f"{what}: max gap {gap.max()}"


def check_trees(trees, grid, kind):
    ev = evaluate_grid(trees, grid.u_nodes[:, None], grid.v_nodes[None, :], kind)
    values, ok, errors = per_node(trees, grid, kind)
    assert np.array_equal(ev.bad, ~ok)
    assert [(idx, str(exc)) for idx, exc in ev.errors()] == errors
    for k, (re, im) in enumerate(ev.values):
        assert_close(re, values[k][..., 0], ok, f"tree {k} re")
        assert_close(im, values[k][..., 1], ok, f"tree {k} im")
    return ev


def check_validate(s, w, grid):
    """validate against condition_i, condition_ii and the generic residual per node."""
    report = validate(s, w, grid)
    bars = [wirtinger_bar(p) for p in w.psi]
    _, ok, errors = per_node(list(w.psi) + bars, grid, w.kind)
    assert np.array_equal(report.node_ok, ok)
    assert [(u, v, msg) for u, v, msg in report.errors] == [
        (float(grid.u_nodes[i]), float(grid.v_nodes[j]), msg) for (i, j), msg in errors
    ]
    L = l_table(s)
    shape = (grid.nu, grid.nv)
    want = {name: np.zeros(shape) for name in ("ci", "cii_re", "cii_im")}
    want_re, want_im = np.zeros((4,) + shape), np.zeros((4,) + shape)
    for i, j in zip(*np.nonzero(ok)):
        u, v = float(grid.u_nodes[i]), float(grid.v_nodes[j])
        want["ci"][i, j] = condition_i(s, w, u, v)
        cii = condition_ii(s, w, u, v)
        want["cii_re"][i, j], want["cii_im"][i, j] = cii.re, cii.im
        for k, r in enumerate(harmonicity_residual_generic(L, w, u, v)):
            want_re[k, i, j], want_im[k, i, j] = r.re, r.im
    assert_close(report.cond_i, want["ci"], ok, "cond_i")
    assert_close(report.cond_ii_re, want["cii_re"], ok, "cond_ii_re")
    assert_close(report.cond_ii_im, want["cii_im"], ok, "cond_ii_im")
    for k in range(4):
        assert_close(report.residual_re[k], want_re[k], ok, f"r{k + 1}_re")
        assert_close(report.residual_im[k], want_im[k], ok, f"r{k + 1}_im")
    # masked nodes read 0 in every field
    assert not report.cond_i[~ok].any() and not report.residual_re[:, ~ok].any()
    return report


class TestRandomFormulas:
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("grid", [EDGE_GRID, PRESET_GRID], ids=["edges", "preset"])
    def test_trees_and_their_derivatives(self, kind, grid):
        rng = random.Random(f"trees/{kind.value}/{grid.u_min}")
        bad_seen = nan_seen = 0
        for _ in range(60):
            e = random_formula(rng, kind)
            ev = check_trees([e, wirtinger_bar(e)], grid, kind)
            bad_seen += bool(ev.bad.any())
            nan_seen += any(np.isnan(re[~ev.bad]).any() for re, _ in ev.values)
        # the draw reaches failed nodes and NaN values, or it tests little
        assert bad_seen >= 10 and nan_seen >= 1

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("grid", [EDGE_GRID, PRESET_GRID], ids=["edges", "preset"])
    def test_sharing_is_invisible(self, kind, grid):
        # the formulas of test_trees_and_their_derivatives, each also
        # evaluated as its unshared twin
        rng = random.Random(f"trees/{kind.value}/{grid.u_min}")
        u, v = grid.u_nodes[:, None], grid.v_nodes[None, :]
        saved = 0
        for _ in range(60):
            e = random_formula(rng, kind)
            trees = [e, wirtinger_bar(e)]
            twins = [unshared(t) for t in trees]
            saved += len(distinct_nodes(twins)) - len(distinct_nodes(trees))
            got, want = evaluate_grid(trees, u, v, kind), evaluate_grid(twins, u, v, kind)
            assert np.array_equal(got.bad, want.bad)
            texts = [[(i, str(exc)) for i, exc in ev.errors()] for ev in (got, want)]
            assert texts[0] == texts[1]
            for pair, twin_pair in zip(got.values, want.values):
                for a, b in zip(pair, twin_pair):
                    assert a[~got.bad].tobytes() == b[~got.bad].tobytes()
        assert saved >= 60 * 10  # the shared trees hold far fewer nodes

    @pytest.mark.parametrize("space_kind", list(SpaceKind))
    @pytest.mark.parametrize("kind", list(Kind))
    def test_validate(self, space_kind, kind):
        rng = random.Random(f"validate/{space_kind.value}/{kind.value}")
        s = SpaceModel(space_kind, 1.0)
        unit = kind.unit_symbol
        for n in range(12):
            texts = [f"{unit}/u", "0", "0", "1/u"]
            for k in rng.sample(range(4), rng.randint(1, 2)):
                extra = print_expr(random_tree(rng, 3), kind)
                texts[k] = f"({texts[k]}) + 0.01*{extra}"
            w = WeierstrassData.from_strings(texts, kind)
            check_validate(s, w, EDGE_GRID if n % 2 else PRESET_GRID)


class TestPinnedCases:
    def test_signed_zero_imaginary_part_stays_on_its_side_of_the_cut(self):
        # ln of (v)^-3 at v < 0 is ln of a negative real with imaginary part -0.0
        p = PRESETS["s43-spacelike-basic"]
        texts = ("(i/u) + 0.001*ln((v)^-3)",) + p.psi_texts[1:]
        w = WeierstrassData.from_strings(texts, p.algebra)
        report = check_validate(p.model(), w, PRESET_GRID)
        ev = evaluate_grid([parse("ln((v)^-3)", Kind.COMPLEX)], 1.0, -0.5, Kind.COMPLEX)
        assert ev.values[0][1] == -math.pi
        assert not report.node_ok[:, PRESET_GRID.nv // 2].any()  # v = 0 is a pole

    def test_real_factors_are_full_products(self):
        # psi2^2 overflows to inf; eps*(psi2*psi2) is computed as
        # (psi2*psi2)*(eps + 0*unit), and 0*inf gives NaN in cond_ii_im
        p = PRESETS["s41-timelike-basic"]
        texts = (p.psi_texts[0], "(0) + 0.01*exp((v)^-3)") + p.psi_texts[2:]
        w = WeierstrassData.from_strings(texts, p.algebra)
        grid = DomainGrid(1, 2, -1, 1, 9, 17, 1, 0)
        report = check_validate(p.model(), w, grid)
        i, j = 0, 9  # (u, v) = (1, 0.125)
        assert grid.v_nodes[j] == 0.125 and report.node_ok[i, j]
        assert math.isnan(report.cond_ii_im[i, j])
        assert math.isnan(condition_ii(p.model(), w, 1.0, 0.125).im)

    def test_overflow_fails_every_node(self):
        e = parse("exp(1000*u)", Kind.PARA)
        ev = check_trees([e], PRESET_GRID, Kind.PARA)
        assert ev.bad.all()
        assert str(ev.errors()[0][1]) == "exp failed (at position 0): non-finite value"

    def test_pole_on_a_grid_line(self):
        e = parse("1/(u - 1.5)", Kind.COMPLEX)
        ev = check_trees([e], PRESET_GRID, Kind.COMPLEX)
        assert np.array_equal(np.nonzero(ev.bad)[0], np.full(9, 4))  # the row u = 1.5

    def test_null_cone_divisor(self):
        e = parse("1/(u + tau*u)", Kind.PARA)
        ev = check_trees([e], EDGE_GRID, Kind.PARA)
        assert ev.bad.all()
        messages = {str(exc).split(": ", 1)[1] for _, exc in ev.errors()}
        assert "cannot invert zero" in messages  # the u = 0 row
        assert any(m.endswith("lies on the null cone") for m in messages)

    @pytest.mark.parametrize(
        "kind,text",
        [(Kind.PARA, "ln(u + tau*v)"), (Kind.COMPLEX, "ln(u + i*v)"), (Kind.COMPLEX, "ln(-u)")],
    )
    def test_ln_domains(self, kind, text):
        ev = check_trees([parse(text, kind)], EDGE_GRID, kind)
        if kind is Kind.PARA:
            # defined only inside the cone u > |v|
            u, v = np.meshgrid(EDGE_GRID.u_nodes, EDGE_GRID.v_nodes, indexing="ij")
            assert np.array_equal(~ev.bad, u > np.abs(v))
        elif text == "ln(u + i*v)":
            assert np.argwhere(ev.bad).tolist() == [[4, 4]]  # only ln(0)
        else:
            # -u carries the imaginary part -0.0: below the cut for u > 0
            assert np.all(ev.values[0][1][5:] == -math.pi)

    def test_non_finite_function_argument(self):
        e = parse("tau/u + sin(exp(700)*exp(700))", Kind.PARA)
        ev = check_trees([e], PRESET_GRID, Kind.PARA)
        assert ev.bad.all()
        assert "sin failed" in str(ev.errors()[0][1])
        assert "non-finite argument" in str(ev.errors()[0][1])

    def test_vanishing_norm_names_the_algebra_unit(self):
        # (1e-200)^2 underflows: a nonzero complex divisor of norm 0, named with i
        e = parse("1/(u*1e-200)", Kind.COMPLEX)
        text = "division failed (at position 1): 1e-200 + i*0.0 has vanishing norm"
        with pytest.raises(EvalError) as exc:
            evaluate(e, 1.0, 0.0, Kind.COMPLEX)
        assert str(exc.value) == text
        ev = evaluate_grid([e], 1.0, 0.0, Kind.COMPLEX)
        assert ev.bad and str(ev.first_errors[0]) == text

    def test_constants_of_either_zero_keep_their_sign(self):
        # equal constants share one array, and -0.0 == 0.0 must not merge them
        trees = [Const(0.0), Const(-0.0, -0.0), Conj(Const(0.0)), Const(0.0, 0.0)]
        ev = check_trees(trees, EDGE_GRID, Kind.COMPLEX)
        signs = [(np.signbit(re).all(), np.signbit(im).all()) for re, im in ev.values]
        assert signs == [(False, False), (True, True), (False, True), (False, False)]

    def test_scalar_inputs(self):
        e = parse("1/u", Kind.PARA)
        ev = evaluate_grid([e], 0.0, 1.0, Kind.PARA)
        assert ev.bad.shape == () and ev.bad
        with pytest.raises(EvalError, match="division failed"):
            ev.raise_first()
        ev = evaluate_grid([e], 2.0, 1.0, Kind.PARA)
        assert float(ev.values[0][0]) == 0.5
        ev.raise_first()  # nothing to raise


def pool_key(e):
    """What derivative-built nodes are shared on: type, scalar fields, child objects."""
    return (type(e), *(id(a) if isinstance(a, expr.Expr) else a for a in vars(e).values()))


class TestSharedDerivatives:
    @pytest.mark.parametrize(
        "texts,kind",
        [(p.psi_texts, p.algebra) for p in PRESETS.values()]
        + [(("1/u^2 + exp(u*v)", "0", "0", "1/u"), Kind.COMPLEX)],
        ids=[*PRESETS, "quotient"],
    )
    def test_no_derivative_node_is_built_twice(self, texts, kind):
        w = WeierstrassData.from_strings(texts, kind)
        built = [e for e in distinct_nodes(w.bars) if e.pos == -1]
        assert len({pool_key(e) for e in built}) == len(built)
        if texts[0].startswith("1/u^2"):
            # every equal pair is merged here, the quotient rule's (u^2)^2
            # of d/du and d/dv included; in the presets Pow(u, 2) of tau/u
            # and of 1/u stay apart, being built on two parsed u
            assert len(set(built)) == len(built)
            squares = [e for e in built if isinstance(e, Pow) and e.n == 2]
            assert len(squares) == 2  # (u^2)^2 and u^2 from 1/u

    def test_node_count_is_pinned(self):
        p = PRESETS["s41-timelike-basic"]
        w = WeierstrassData.from_strings(p.psi_texts, p.algebra)
        trees = list(w.psi) + list(w.bars)
        # validate's eight trees: 51 node objects when every derivative
        # built its own nodes
        assert len(distinct_nodes(trees)) == 37


def test_shared_values_are_read_only():
    # psi2 and psi3 are both "0": their values are one read-only array
    p = PRESETS["s41-timelike-basic"]
    assert p.psi_texts[1:3] == ("0", "0")
    w = WeierstrassData.from_strings(p.psi_texts, p.algebra)
    grid = p.grid.with_resolution(17, 17)
    trees = list(w.psi) + [wirtinger_bar(q) for q in w.psi]
    ev = evaluate_grid(trees, grid.u_nodes[:, None], grid.v_nodes[None, :], w.kind)
    assert np.shares_memory(ev.values[1][0], ev.values[2][0])
    for a in (a for pair in ev.values for a in pair):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ev.values[1][0][0, 0] = 1.0
    assert not ev.values[2][0].any()
    # validate, the march and verify_mesh read the shared arrays and still run
    s = p.model()
    assert validate(s, w, grid).passed
    mesh = synthesize(s, w, grid, p.f0)
    assert path_independence(s, w, mesh) < 1e-6
    assert verify_mesh(s, mesh, w).passed


class TestSettleOncePerOperand:
    """The per-node operation runs once per distinct operand bit pattern."""

    @pytest.fixture
    def applied(self, monkeypatch):
        calls, apply = [], expr._apply

        def counted(e, args, kind):
            calls.append(e)
            return apply(e, args, kind)

        monkeypatch.setattr(expr, "_apply", counted)
        return calls

    def test_same_failure_everywhere_runs_once(self, applied):
        ev = evaluate_grid([parse("ln(tau)", Kind.PARA)],
                           EDGE_GRID.u_nodes[:, None], EDGE_GRID.v_nodes[None, :], Kind.PARA)
        assert ev.bad.all() and len(applied) == 1
        errors = [exc for _, exc in ev.errors()]
        assert all(exc is errors[0] for exc in errors)  # one object, so one text
        assert str(errors[0]) == (
            "ln failed (at position 0): paracomplex ln needs re > |im|, got 0.0 + tau*1.0"
        )

    def test_u_only_operand_runs_once_per_u(self, applied):
        grid = DomainGrid(-1, 1, -1, 1, 5, 7, 0, 0)
        ev = evaluate_grid([parse("ln(u*tau)", Kind.PARA)],
                           grid.u_nodes[:, None], grid.v_nodes[None, :], Kind.PARA)
        assert ev.bad.all()
        assert len(applied) == grid.nu  # not nu * nv
        rows = [{id(exc) for (i, _), exc in ev.errors() if i == row} for row in range(grid.nu)]
        assert all(len(ids) == 1 for ids in rows) and len(set.union(*rows)) == grid.nu

    def test_zeros_of_either_sign_run_apart(self, applied):
        u = np.array([0.0, -0.0, 0.0, -0.0])
        ev = evaluate_grid([parse("1/u", Kind.COMPLEX)], u, 1.0, Kind.COMPLEX)
        assert ev.bad.all() and len(applied) == 2
        errors = [exc for _, exc in ev.errors()]
        assert errors[0] is errors[2] and errors[1] is errors[3]
        assert errors[0] is not errors[1]


def test_failed_nodes_leave_no_reference_cycles():
    # a stored error that kept its traceback would hold the evaluator and
    # every array of the evaluation until the cyclic collector ran
    p = PRESETS["s41-timelike-basic"]
    mesh = synthesize(p.model(), p.weierstrass(), p.grid.with_resolution(9, 9), p.f0)
    w = WeierstrassData.from_strings([p.psi_texts[0] + " + ln(tau)", *p.psi_texts[1:]], p.algebra)
    ln_reference = dataclasses.replace(p, reference_texts=("ln(tau)",) * 4)
    gc.collect()
    gc.disable()
    try:
        ev = evaluate_grid([parse("1/(u + tau*u) + exp(1000*v)", Kind.PARA)],
                           EDGE_GRID.u_nodes[:, None], EDGE_GRID.v_nodes[None, :], Kind.PARA)
        assert ev.bad.all()
        del ev
        assert gc.collect() == 0
        # every node shares one error object, which raise_first raises
        ev = evaluate_grid([parse("ln(tau)", Kind.PARA)],
                           EDGE_GRID.u_nodes[:, None], EDGE_GRID.v_nodes[None, :], Kind.PARA)
        assert ev.bad.all() and len({id(exc) for exc in ev.first_errors.values()}) == 1
        with pytest.raises(EvalError, match="ln failed") as info:
            ev.raise_first()
        # a copy: the raised error's traceback holds the caller's frames
        stored, raised = ev.first_errors[0], info.value
        assert raised is not stored
        assert (str(raised), raised.cause, raised.pos, raised.__cause__) == (
            str(stored), stored.cause, stored.pos, stored.__cause__)
        del ev, info, stored, raised
        assert gc.collect() == 0
        # nor do the callers that let raise_first's error propagate
        with pytest.raises(EvalError, match="ln failed"):
            verify_mesh(p.model(), mesh, w)
        assert gc.collect() == 0
        with pytest.raises(EvalError, match="ln failed"):
            reference_error(ln_reference, mesh)
        assert gc.collect() == 0
    finally:
        gc.enable()
