"""Expression trees for scalar-valued functions of the real pair (u, v).

A small recursive-descent parser builds immutable ASTs from formula text
such as ``tau/u`` or ``exp(u)*cosh(v)``.  Trees are algebra-agnostic;
the kind (complex vs para) is fixed at parse time only to reject the
wrong imaginary-unit token, and supplied again at evaluation.  Symbolic
differentiation is exact and deliberately unsimplified.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)?
    base   := number | 'u' | 'v' | 'i' | 'tau'
            | ident '(' expr ')' | '(' expr ')' | '-' base
    ident  in {exp, ln, sin, cos, sinh, cosh, conj}
    number := decimal literal with an optional exponent, e.g. 2, .5, 1e-05
"""

from __future__ import annotations

import functools
import math
import re as _re
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import AlgebraError, Kind, Scalar


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Syntax error; carries the 0-based position in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class KindError(ExprError):
    """Imaginary-unit token incompatible with the configured algebra."""


class EvalError(ExprError):
    """Evaluation failure, wrapping the underlying algebra error."""

    def __init__(self, message: str, cause: Exception, pos: int = -1):
        where = f" (at position {pos})" if pos >= 0 else ""
        super().__init__(f"{message}{where}: {cause}")
        self.cause = cause
        self.pos = pos


# -- AST nodes -----------------------------------------------------------
# `pos` is excluded from equality/hash so structural comparison and the
# derivative cache ignore source locations.


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    re: float
    im: float = 0.0
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # 'u' or 'v'
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Unit(Expr):
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    n: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Conj(Expr):
    a: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    a: Expr
    pos: int = field(default=-1, compare=False)


FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh", "conj")

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, kind: Kind):
        self.text = text
        self.kind = kind
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        typ, val, pos = self.next()
        if typ != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        typ, val, pos = self.peek()
        if typ != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            typ, val, pos = self.peek()
            if typ == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs, pos=pos) if val == "+" else Sub(e, rhs, pos=pos)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            typ, val, pos = self.peek()
            if typ == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                e = Mul(e, rhs, pos=pos) if val == "*" else Div(e, rhs, pos=pos)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        typ, val, pos = self.peek()
        if typ == "op" and val == "^":
            self.next()
            sign = 1
            typ2, val2, pos2 = self.peek()
            if typ2 == "op" and val2 == "-":
                self.next()
                sign = -1
            typ2, val2, pos2 = self.next()
            if typ2 != "num" or not val2.isdigit():
                raise ParseError("exponent must be an integer", pos2)
            e = Pow(e, sign * int(val2), pos=pos)
        return e

    def base(self) -> Expr:
        typ, val, pos = self.next()
        if typ == "num":
            return Const(float(val), pos=pos)
        if typ == "op" and val == "-":
            # exponentiation binds tighter than the unary minus
            return Neg(self.factor(), pos=pos)
        if typ == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if typ == "name":
            if val in ("u", "v"):
                return Var(val, pos=pos)
            if val in ("i", "tau"):
                if val != self.kind.unit_symbol:
                    raise KindError(
                        f"unit {val!r} is not available in the "
                        f"{self.kind.value} algebra (at position {pos})"
                    )
                return Unit(pos=pos)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                if val == "conj":
                    return Conj(arg, pos=pos)
                return Call(val, arg, pos=pos)
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, kind: Kind) -> Expr:
    """Parse formula text into an expression tree."""
    return _Parser(text, kind).parse()


# -- printing ------------------------------------------------------------


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def print_expr(e: Expr, kind: Kind) -> str:
    """Render a tree back to grammar text (fully parenthesized where needed)."""
    if isinstance(e, Const):
        if e.im == 0.0:
            if e.re < 0:
                return f"(-{_num(-e.re)})"
            return _num(e.re)
        raise ValueError("Const with unit part should be built as Mul(Const, Unit)")
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unit):
        return kind.unit_symbol
    if isinstance(e, Add):
        return f"({print_expr(e.a, kind)} + {print_expr(e.b, kind)})"
    if isinstance(e, Sub):
        return f"({print_expr(e.a, kind)} - {print_expr(e.b, kind)})"
    if isinstance(e, Mul):
        return f"({print_expr(e.a, kind)} * {print_expr(e.b, kind)})"
    if isinstance(e, Div):
        return f"({print_expr(e.a, kind)} / {print_expr(e.b, kind)})"
    if isinstance(e, Pow):
        return f"({print_expr(e.base, kind)})^{e.n}" if e.n >= 0 else f"({print_expr(e.base, kind)})^-{-e.n}"
    if isinstance(e, Neg):
        return f"(-{print_expr(e.a, kind)})"
    if isinstance(e, Conj):
        return f"conj({print_expr(e.a, kind)})"
    if isinstance(e, Call):
        return f"{e.fn}({print_expr(e.a, kind)})"
    raise TypeError(type(e))


# -- evaluation ----------------------------------------------------------

_CALL_EVAL = {
    "exp": algebra.exp_scalar,
    "ln": algebra.ln_scalar,
    "sin": algebra.sin_scalar,
    "cos": algebra.cos_scalar,
    "sinh": algebra.sinh_scalar,
    "cosh": algebra.cosh_scalar,
}


def evaluate(e: Expr, u: float, v: float, kind: Kind) -> Scalar:
    """Evaluate the tree at the real point (u, v).

    Algebra failures (poles, zero divisors, the ln domain) raise
    EvalError, and so does a function call whose argument or value is
    not finite (overflow in exp, sinh or cosh, sin of an overflowed
    argument).  This per-node route is the reference that
    evaluate_grid mirrors.
    """
    if isinstance(e, Const):
        return Scalar(e.re, e.im, kind)
    if isinstance(e, Var):
        return Scalar(u if e.name == "u" else v, 0.0, kind)
    if isinstance(e, Unit):
        return Scalar(0.0, 1.0, kind)
    return _apply(e, [evaluate(a, u, v, kind) for a in _operands(e)], kind)


def _operands(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.a, e.b)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Neg, Conj, Call)):
        return (e.a,)
    raise TypeError(type(e))


def _finite(s: Scalar) -> bool:
    return math.isfinite(s.re) and math.isfinite(s.im)


def _apply(e: Expr, args: list[Scalar], kind: Kind) -> Scalar:
    """The operation of the inner node e on its evaluated operands."""
    if isinstance(e, Add):
        return args[0] + args[1]
    if isinstance(e, Sub):
        return args[0] - args[1]
    if isinstance(e, Mul):
        return args[0] * args[1]
    if isinstance(e, Div):
        try:
            return args[0] / args[1]
        except AlgebraError as exc:
            raise EvalError("division failed", exc, e.pos) from exc
    if isinstance(e, Pow):
        base = args[0]
        n = e.n
        if n < 0:
            try:
                base = algebra.invert(base)
            except AlgebraError as exc:
                raise EvalError("negative power failed", exc, e.pos) from exc
            n = -n
        out = algebra.one(kind)
        for _ in range(n):
            out = out * base
        return out
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, Conj):
        return algebra.conj(args[0])
    if isinstance(e, Call):
        if not _finite(args[0]):
            raise EvalError(f"{e.fn} failed", algebra.DomainError("non-finite argument"), e.pos)
        try:
            out = _CALL_EVAL[e.fn](args[0])
        except AlgebraError as exc:
            raise EvalError(f"{e.fn} failed", exc, e.pos) from exc
        except (OverflowError, ValueError):
            # math and cmath word an overflow, or a domain error on an
            # overflowed intermediate, their own way: report one text
            out = None
        if out is None or not _finite(out):
            raise EvalError(f"{e.fn} failed", OverflowError("non-finite value"), e.pos)
        return out
    raise TypeError(type(e))


# -- evaluation over a grid ----------------------------------------------


@dataclass
class GridEval:
    """Values of several trees over a grid of nodes, with the failed nodes.

    values[k] is the (re, im) pair of float arrays of tree k; at a bad
    node its entries are unspecified.  bad is True exactly where
    evaluate raises EvalError for one of the trees, taken in order.
    """

    values: list[tuple[np.ndarray, np.ndarray]]
    bad: np.ndarray
    first_errors: dict[int, EvalError]  # flat node index -> the EvalError evaluate raises there

    def errors(self) -> list[tuple[tuple[int, ...], EvalError]]:
        """(node index, EvalError) of every bad node, in row-major order."""
        return [
            (tuple(int(i) for i in np.unravel_index(k, self.bad.shape)), self.first_errors[k])
            for k in np.flatnonzero(self.bad)
        ]

    def raise_first(self) -> None:
        """Raise the EvalError of the first bad node in row-major order, if any."""
        if self.bad.any():
            raise self.first_errors[int(np.flatnonzero(self.bad)[0])]


def evaluate_grid(trees, u, v, kind: Kind) -> GridEval:
    """Evaluate each tree at every node of the broadcast (u, v) arrays.

    The array twin of evaluate: each algebra operation runs over all
    nodes at once in the order Scalar performs it, so values, infs and
    NaNs agree node by node with evaluate (the numpy transcendental
    functions may differ from math and cmath in the last bit).  Nodes
    where an operation may fail (a divisor on the zero or null-cone
    test, a non-finite argument or value of a function call) are re-run
    through the per-node operation, which gives the verdict and the
    message.  Never raises for a failed node.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    ev = _GridEvaluator(u.ravel(), v.ravel(), kind)
    with np.errstate(all="ignore"):
        values = [ev.eval(t) for t in trees]
    return GridEval(
        values=[(re.reshape(u.shape), im.reshape(u.shape)) for re, im in values],
        bad=ev.bad.reshape(u.shape),
        first_errors=ev.first_errors,
    )


class _GridEvaluator:
    """Post-order evaluation over flat node arrays, shared subtrees once."""

    def __init__(self, u: np.ndarray, v: np.ndarray, kind: Kind):
        self.u, self.v, self.kind = u, v, kind
        self.bad = np.zeros(u.shape, dtype=bool)
        self.first_errors = {}
        self.memo = {}  # id(node) -> (node, value); holding node keeps its id unique

    def eval(self, e: Expr):
        hit = self.memo.get(id(e))
        if hit is None:
            hit = self.memo[id(e)] = (e, self._node(e))
        return hit[1]

    def _full(self, x: float) -> np.ndarray:
        return np.full(self.u.shape, x)

    def _node(self, e: Expr):
        if isinstance(e, Const):
            return self._full(e.re), self._full(e.im)
        if isinstance(e, Var):
            return (self.u if e.name == "u" else self.v), self._full(0.0)
        if isinstance(e, Unit):
            return self._full(0.0), self._full(1.0)
        args = [self.eval(a) for a in _operands(e)]
        sigma = self.kind.sigma
        fails = None
        if isinstance(e, Add):
            out = args[0][0] + args[1][0], args[0][1] + args[1][1]
        elif isinstance(e, Sub):
            out = args[0][0] - args[1][0], args[0][1] - args[1][1]
        elif isinstance(e, Mul):
            out = algebra.mul_arrays(args[0], args[1], sigma)
        elif isinstance(e, Div):
            inverse, fails = algebra.invert_arrays(args[1], self.kind)
            out = algebra.mul_arrays(args[0], inverse, sigma)
        elif isinstance(e, Pow):
            base = args[0]
            if e.n < 0:
                base, fails = algebra.invert_arrays(base, self.kind)
            out = self._full(1.0), self._full(0.0)
            for _ in range(abs(e.n)):
                out = algebra.mul_arrays(out, base, sigma)
        elif isinstance(e, Neg):
            out = -args[0][0], -args[0][1]
        elif isinstance(e, Conj):
            out = args[0][0], -args[0][1]
        elif isinstance(e, Call):
            out = algebra.CALL_ARRAYS[e.fn](args[0], self.kind)
            fails = ~(_finite_arrays(args[0]) & _finite_arrays(out))
        else:
            raise TypeError(type(e))
        if fails is not None:
            self._settle(e, args, out, fails & ~self.bad)
        return out

    def _settle(self, e: Expr, args, out, suspects: np.ndarray) -> None:
        # the per-node operation decides each suspect node: it either
        # raises (the node goes bad with that error) or gives the value
        for k in np.flatnonzero(suspects):
            try:
                val = _apply(e, [Scalar(re[k], im[k], self.kind) for re, im in args], self.kind)
            except EvalError as exc:
                # keep the error, not its frames: a traceback would tie
                # this evaluator and all its arrays into a reference cycle
                exc.__traceback__ = exc.cause.__traceback__ = None
                self.bad[k] = True
                self.first_errors[int(k)] = exc
            else:
                out[0][k], out[1][k] = val.re, val.im


def _finite_arrays(a) -> np.ndarray:
    return np.isfinite(a[0]) & np.isfinite(a[1])


# -- differentiation -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def diff(e: Expr, wrt: str) -> Expr:
    """Exact partial derivative tree with respect to 'u' or 'v'."""
    if wrt not in ("u", "v"):
        raise ValueError("wrt must be 'u' or 'v'")
    if isinstance(e, (Const, Unit)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == wrt else 0.0)
    if isinstance(e, Add):
        return Add(diff(e.a, wrt), diff(e.b, wrt))
    if isinstance(e, Sub):
        return Sub(diff(e.a, wrt), diff(e.b, wrt))
    if isinstance(e, Mul):
        return Add(Mul(diff(e.a, wrt), e.b), Mul(e.a, diff(e.b, wrt)))
    if isinstance(e, Div):
        num = Sub(Mul(diff(e.a, wrt), e.b), Mul(e.a, diff(e.b, wrt)))
        return Div(num, Pow(e.b, 2))
    if isinstance(e, Pow):
        if e.n == 0:
            return Const(0.0)
        return Mul(Mul(Const(float(e.n)), Pow(e.base, e.n - 1)), diff(e.base, wrt))
    if isinstance(e, Neg):
        return Neg(diff(e.a, wrt))
    if isinstance(e, Conj):
        # conj is R-linear, so it commutes with real partials
        return Conj(diff(e.a, wrt))
    if isinstance(e, Call):
        inner = diff(e.a, wrt)
        if e.fn == "exp":
            outer = Call("exp", e.a)
        elif e.fn == "ln":
            outer = Div(Const(1.0), e.a)
        elif e.fn == "sin":
            outer = Call("cos", e.a)
        elif e.fn == "cos":
            outer = Neg(Call("sin", e.a))
        elif e.fn == "sinh":
            outer = Call("cosh", e.a)
        elif e.fn == "cosh":
            outer = Call("sinh", e.a)
        else:
            raise ValueError(f"no derivative rule for {e.fn}")
        return Mul(outer, inner)
    raise TypeError(type(e))


@functools.lru_cache(maxsize=None)
def wirtinger_bar(e: Expr) -> Expr:
    """The conjugate Wirtinger operator (d/du - unit*d/dv)/2.

    The companion holomorphic operator carries the plus sign on the
    v-term; both follow the same orientation convention throughout the
    package, in both algebras.
    """
    return Mul(Const(0.5), Sub(diff(e, "u"), Mul(Unit(), diff(e, "v"))))


# -- Weierstrass data ----------------------------------------------------


@dataclass(frozen=True)
class WeierstrassData:
    """Four scalar-valued component functions over a planar domain."""

    psi: tuple[Expr, Expr, Expr, Expr]
    kind: Kind

    def __post_init__(self):
        if len(self.psi) != 4:
            raise ValueError("exactly four component functions are required")

    @classmethod
    def from_strings(cls, texts, kind: Kind) -> "WeierstrassData":
        texts = tuple(texts)
        if len(texts) != 4:
            raise ValueError("exactly four component formulas are required")
        return cls(tuple(parse(t, kind) for t in texts), kind)

    def eval_components(self, u: float, v: float) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return tuple(evaluate(p, u, v, self.kind) for p in self.psi)
