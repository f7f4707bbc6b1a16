import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmin import expr
from drmin.algebra import Kind, Scalar
from drmin.expr import (
    Add,
    Call,
    Const,
    Div,
    EvalError,
    KindError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Unit,
    Var,
    WeierstrassData,
    diff,
    evaluate,
    parse,
    print_expr,
    wirtinger_bar,
)


class TestParse:
    def test_structure(self):
        assert parse("tau/u", Kind.PARA) == Div(Unit(), Var("u"))
        assert parse("u + tau*v", Kind.PARA) == Add(Var("u"), Mul(Unit(), Var("v")))

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than * /
        assert parse("-u^2", Kind.PARA) == Neg(Pow(Var("u"), 2))
        assert parse("1 + 2*u", Kind.PARA) == Add(Const(1.0), Mul(Const(2.0), Var("u")))
        assert parse("u - v - 1", Kind.PARA) == Sub(Sub(Var("u"), Var("v")), Const(1.0))

    def test_eval_simple(self):
        e = parse("1/(2*u) + tau*0", Kind.PARA)
        assert evaluate(e, 1.0, 0.0, Kind.PARA).is_close(Scalar(0.5, 0, Kind.PARA))

    def test_wrong_unit_rejected(self):
        with pytest.raises(KindError):
            parse("i/u", Kind.PARA)
        with pytest.raises(KindError):
            parse("tau*v", Kind.COMPLEX)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("tau//u", Kind.PARA)
        assert exc.value.pos == 4
        with pytest.raises(ParseError):
            parse("exp(u", Kind.PARA)
        with pytest.raises(ParseError):
            parse("u^v", Kind.PARA)
        with pytest.raises(ParseError):
            parse("frob(u)", Kind.PARA)

    def test_functions_and_conj(self):
        e = parse("conj(u + tau*v)", Kind.PARA)
        assert evaluate(e, 3, 4, Kind.PARA).is_close(Scalar(3, -4, Kind.PARA))
        e = parse("exp(ln(u))", Kind.PARA)
        assert evaluate(e, 2.5, 0, Kind.PARA).is_close(Scalar(2.5, 0, Kind.PARA))

    def test_integer_powers(self):
        e = parse("u^3", Kind.PARA)
        assert evaluate(e, 2, 0, Kind.PARA).is_close(Scalar(8, 0, Kind.PARA))
        e = parse("u^-2", Kind.PARA)
        assert evaluate(e, 2, 0, Kind.PARA).is_close(Scalar(0.25, 0, Kind.PARA))
        with pytest.raises(ParseError):
            parse("u^1.5", Kind.PARA)

    @pytest.mark.parametrize("text, value", [("1e-05", 1e-05), ("2.5E3", 2500.0), (".5e+1", 5.0)])
    def test_exponent_literals(self, text, value):
        assert parse(text, Kind.PARA) == Const(value)
        e = parse(f"{text}*u", Kind.COMPLEX)
        assert evaluate(e, 2.0, 0.0, Kind.COMPLEX).re == value * 2.0

    def test_repr_text_parses_back(self):
        for x in (1e-05, 6.02e23, 0.1, 1.5e-300):
            assert parse(repr(x), Kind.PARA) == Const(x)

    def test_exponent_literal_is_no_power(self):
        with pytest.raises(ParseError, match="integer"):
            parse("u^1e2", Kind.PARA)
        # '2e' with no digits is the number 2 followed by a name
        with pytest.raises(ParseError, match="unexpected token 'exp'"):
            parse("2exp(u)", Kind.PARA)


class TestEval:
    def test_typical_component_data(self):
        e = parse("tau/u", Kind.PARA)
        assert evaluate(e, 2, 5, Kind.PARA).is_close(Scalar(0, 0.5, Kind.PARA))
        e = parse("i/u", Kind.COMPLEX)
        assert evaluate(e, 1, 0, Kind.COMPLEX).is_close(Scalar(0, 1, Kind.COMPLEX))
        e = parse("u + tau*v", Kind.PARA)
        assert evaluate(e, 3, 4, Kind.PARA).is_close(Scalar(3, 4, Kind.PARA))

    def test_eval_error_wraps_algebra_error(self):
        e = parse("1/u", Kind.PARA)
        with pytest.raises(EvalError):
            evaluate(e, 0.0, 0.0, Kind.PARA)
        e = parse("1/(u + tau*v)", Kind.PARA)
        with pytest.raises(EvalError):
            evaluate(e, 1.0, 1.0, Kind.PARA)  # zero divisor

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("fn", ["exp", "sinh", "cosh"])
    def test_overflow_is_eval_error(self, kind, fn):
        e = parse(f"{fn}(1000*u)", kind)
        with pytest.raises(EvalError, match=f"{fn} failed"):
            evaluate(e, 1.0, 0.0, kind)


# random expression generator for round-trip and derivative oracles


def random_expr(rng, depth=3, funcs=True):
    if depth == 0:
        return rng.choice(
            [Const(round(rng.uniform(-3, 3), 3)), Var("u"), Var("v"), Unit()]
        )
    choice = rng.random()
    if choice < 0.25:
        return Add(random_expr(rng, depth - 1, funcs), random_expr(rng, depth - 1, funcs))
    if choice < 0.45:
        return Sub(random_expr(rng, depth - 1, funcs), random_expr(rng, depth - 1, funcs))
    if choice < 0.7:
        return Mul(random_expr(rng, depth - 1, funcs), random_expr(rng, depth - 1, funcs))
    if choice < 0.8 and funcs:
        return Call(rng.choice(["sin", "cos", "exp"]), random_expr(rng, depth - 1, funcs))
    if choice < 0.9:
        return Pow(random_expr(rng, depth - 1, funcs), rng.randint(0, 3))
    return Neg(random_expr(rng, depth - 1, funcs))


class TestPrintRoundTrip:
    @pytest.mark.parametrize("kind", [Kind.PARA, Kind.COMPLEX])
    def test_random_trees(self, kind):
        rng = random.Random(7)
        for _ in range(200):
            e = random_expr(rng)
            text = print_expr(e, kind)
            # negative literals print as (-x) and reparse as Neg(Const(x));
            # normalize by comparing printed forms instead
            again = parse(text, kind)
            assert print_expr(again, kind) == text

    def test_parse_print_parse_fixed(self):
        for text in ["tau/u", "1/(2*u) + tau*0", "exp(u)*cosh(v)", "u^-2 - conj(v)"]:
            e = parse(text, Kind.PARA)
            assert parse(print_expr(e, Kind.PARA), Kind.PARA) == e


def fd_partial(e, wrt, u, v, kind, h=1e-5):
    du = h if wrt == "u" else 0.0
    dv = h if wrt == "v" else 0.0
    hi = evaluate(e, u + du, v + dv, kind)
    lo = evaluate(e, u - du, v - dv, kind)
    return Scalar((hi.re - lo.re) / (2 * h), (hi.im - lo.im) / (2 * h), kind)


class TestDiff:
    def test_power_rule(self):
        e = parse("tau/u", Kind.PARA)
        d = diff(e, "u")
        # -tau/u^2
        val = evaluate(d, 2.0, 0.0, Kind.PARA)
        assert val.is_close(Scalar(0, -0.25, Kind.PARA))

    def test_linear(self):
        e = parse("u + tau*v", Kind.PARA)
        assert evaluate(diff(e, "v"), 1, 1, Kind.PARA).is_close(Scalar(0, 1, Kind.PARA))

    def test_against_finite_differences(self):
        e = parse("exp(u)*cosh(v)", Kind.PARA)
        rng = random.Random(3)
        for _ in range(20):
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            for wrt in ("u", "v"):
                sym = evaluate(diff(e, wrt), u, v, Kind.PARA)
                num = fd_partial(e, wrt, u, v, Kind.PARA)
                assert abs(sym.re - num.re) <= 1e-7 * (1 + abs(sym.re))
                assert abs(sym.im - num.im) <= 1e-7 * (1 + abs(sym.im))

    @pytest.mark.parametrize("kind", [Kind.PARA, Kind.COMPLEX])
    def test_random_trees_against_fd(self, kind):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            e = random_expr(rng, depth=3)
            for wrt in ("u", "v"):
                d = diff(e, wrt)
                u, v = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
                try:
                    sym = evaluate(d, u, v, kind)
                    num = fd_partial(e, wrt, u, v, kind)
                except EvalError:
                    continue
                scale = 1.0 + max(abs(sym.re), abs(sym.im))
                if scale > 1e3:
                    continue  # steep exponentials degrade the FD oracle
                assert abs(sym.re - num.re) <= 1e-6 * scale
                assert abs(sym.im - num.im) <= 1e-6 * scale
                checked += 1
        assert checked > 50


class TestWirtinger:
    def test_bar_example(self):
        e = parse("tau/u", Kind.PARA)
        val = evaluate(wirtinger_bar(e), 1.0, 0.0, Kind.PARA)
        assert val.is_close(Scalar(0, -0.5, Kind.PARA))

    def test_holomorphic_kernel(self):
        e = parse("u + tau*v", Kind.PARA)
        bar = wirtinger_bar(e)
        for u, v in [(0.0, 0.0), (1.5, -2.0), (3.0, 4.0)]:
            assert evaluate(bar, u, v, Kind.PARA).is_close(Scalar(0, 0, Kind.PARA))

    def test_antiholomorphic_constant(self):
        e = parse("u - tau*v", Kind.PARA)
        bar = wirtinger_bar(e)
        for u, v in [(0.0, 0.0), (1.5, -2.0)]:
            assert evaluate(bar, u, v, Kind.PARA).is_close(Scalar(1, 0, Kind.PARA))

    def test_cauchy_riemann_equivalence(self):
        # f = a + tau b with a_u = b_v and a_v = b_u iff bar-derivative vanishes
        hol = parse("(u^2 + v^2) + tau*(2*u*v)", Kind.PARA)  # (u + tau v)^2
        non = parse("(u^2 + v^2) + tau*(u*v)", Kind.PARA)
        rng = random.Random(5)
        for _ in range(10):
            u, v = rng.uniform(-2, 2), rng.uniform(-2, 2)
            ok = evaluate(wirtinger_bar(hol), u, v, Kind.PARA)
            assert abs(ok.re) <= 1e-12 and abs(ok.im) <= 1e-12
        bad_somewhere = any(
            abs(evaluate(wirtinger_bar(non), u, v, Kind.PARA).im) > 1e-6
            for u, v in [(1.0, 0.5), (2.0, -1.0)]
        )
        assert bad_somewhere

    def test_wave_equation_for_holomorphic_data(self):
        # components of any bar-closed para function satisfy a_uu = a_vv
        for text in ["(u + tau*v)^3", "exp(u)*cosh(v) + tau*(exp(u)*sinh(v))"]:
            e = parse(text, Kind.PARA)
            bar = wirtinger_bar(e)
            duu = diff(diff(e, "u"), "u")
            dvv = diff(diff(e, "v"), "v")
            rng = random.Random(9)
            for _ in range(10):
                u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
                assert evaluate(bar, u, v, Kind.PARA).is_close(
                    Scalar(0, 0, Kind.PARA), tol=1e-10
                )
                a = evaluate(duu, u, v, Kind.PARA)
                b = evaluate(dvv, u, v, Kind.PARA)
                assert abs(a.re - b.re) <= 1e-8 * (1 + abs(a.re))
                assert abs(a.im - b.im) <= 1e-8 * (1 + abs(a.im))


class TestWeierstrassData:
    def test_needs_four(self):
        with pytest.raises(ValueError):
            WeierstrassData.from_strings(["u", "v"], Kind.PARA)

    def test_kind_homogeneous(self):
        w = WeierstrassData.from_strings(["tau/u", "0", "0", "1/u"], Kind.PARA)
        vals = w.eval_components(2.0, 5.0)
        assert all(s.kind is Kind.PARA for s in vals)
        assert vals[0].is_close(Scalar(0, 0.5, Kind.PARA))
