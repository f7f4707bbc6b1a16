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
    """Evaluation failure, wrapping the underlying algebra error.

    Its args are its three parameters, so EvalError(*exc.args) is a copy.
    """

    def __init__(self, message: str, cause: Exception, pos: int = -1):
        super().__init__(message, cause, pos)
        self.cause = cause
        self.pos = pos

    def __str__(self):
        message, cause, pos = self.args
        where = f" (at position {pos})" if pos >= 0 else ""
        return f"{message}{where}: {cause}"


# -- AST nodes -----------------------------------------------------------
# `pos` is excluded from equality/hash so structural comparison ignores
# source locations.


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
    operands = [a for a in vars(e).values() if isinstance(a, Expr)]  # in field order
    return _apply(e, [evaluate(a, u, v, kind) for a in operands], kind)


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
    node its entries are unspecified.  The arrays are read-only and may
    share memory: one array serves each subtree object and each constant
    value.  bad is True exactly where evaluate raises EvalError for one
    of the trees, taken in order.
    """

    values: list[tuple[np.ndarray, np.ndarray]]
    bad: np.ndarray
    # flat node index -> the EvalError evaluate raises there; nodes whose
    # failing operands have the same bits share one error object
    first_errors: dict[int, EvalError]

    def errors(self) -> list[tuple[tuple[int, ...], EvalError]]:
        """(node index, EvalError) of every bad node, in row-major order."""
        nodes = zip(np.argwhere(self.bad).tolist(), np.flatnonzero(self.bad).tolist())
        return [(tuple(index), self.first_errors[k]) for index, k in nodes]

    def raise_first(self) -> None:
        """Raise the EvalError of the first bad node in row-major order, if any.

        The error raised is a copy of the stored one (text, cause, pos and
        __cause__): its traceback holds the caller's frames, which hold this
        GridEval, so raising the stored error would close a reference cycle.
        """
        if self.bad.any():
            err = self.first_errors[int(np.flatnonzero(self.bad)[0])]
            raise EvalError(*err.args) from err.__cause__


def evaluate_grid(trees, u, v, kind: Kind) -> GridEval:
    """Evaluate each tree at every node of the broadcast (u, v) arrays.

    The array twin of evaluate: each algebra operation runs over all
    nodes at once in the order Scalar performs it, so values, infs and
    NaNs agree node by node with evaluate (the numpy transcendental
    functions may differ from math and cmath in the last bit).  Nodes
    where an operation may fail (a divisor on the zero or null-cone
    test, a non-finite argument or value of a function call) are re-run
    through the per-node operation, which gives the verdict and the
    message, once per distinct bit pattern of the operands: suspect nodes
    with equal operands share one outcome, so their EvalError is one
    object.  Never raises for a failed node.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    ev = _GridEvaluator(u.ravel(), v.ravel(), kind)
    with np.errstate(all="ignore"):
        values = [tuple(a.reshape(u.shape) for a in ev.eval(t)) for t in trees]
    for pair in values:
        for a in pair:
            a.flags.writeable = False
    return GridEval(values=values, bad=ev.bad.reshape(u.shape), first_errors=ev.first_errors)


class _GridEvaluator:
    """Post-order evaluation over flat node arrays, each distinct subtree once.

    _GRID_OPS maps each node type to its operation; constants of one value
    share one read-only array.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, kind: Kind):
        self.u, self.v, self.kind, self.sigma = u, v, kind, kind.sigma
        self.bad = np.zeros(u.shape, dtype=bool)
        self.first_errors = {}
        self.memo = {}  # id(node) -> (node, value); holding node keeps its id unique
        self.fills = {}  # (x, sign of x) -> array of x; the sign keeps -0.0 apart

    def eval(self, e: Expr):
        hit = self.memo.get(id(e))
        if hit is None:
            hit = self.memo[id(e)] = (e, _GRID_OPS[type(e)](self, e))
        return hit[1]

    def full(self, x: float) -> np.ndarray:
        key = x, math.copysign(1.0, x)
        out = self.fills.get(key)
        if out is None:
            out = self.fills[key] = np.full(self.u.shape, x)
            out.flags.writeable = False
        return out

    def div(self, e: Div):
        a, b = self.eval(e.a), self.eval(e.b)
        inverse, fails = algebra.invert_arrays(b, self.kind)
        return self.settle(e, [a, b], algebra.mul_arrays(a, inverse, self.sigma), fails)

    def pow(self, e: Pow):
        arg = base = self.eval(e.base)
        if e.n < 0:
            base, fails = algebra.invert_arrays(arg, self.kind)
        out = self.full(1.0), self.full(0.0)
        for _ in range(abs(e.n)):
            out = algebra.mul_arrays(out, base, self.sigma)
        return self.settle(e, [arg], out, fails) if e.n < 0 else out

    def call(self, e: Call):
        a = self.eval(e.a)
        out = algebra.CALL_ARRAYS[e.fn](a, self.kind)
        return self.settle(e, [a], out, ~np.isfinite([*a, *out]).all(axis=0))

    def settle(self, e: Expr, args, out, fails: np.ndarray):
        """Decide the suspect nodes (fails, not yet bad) by the per-node operation.

        The operation either raises (the node goes bad with that error) or
        gives the value.  It runs once per distinct operand tuple, keyed on
        the bits of the re and im of every argument (so -0.0 stays apart
        from 0.0), and every suspect node with those bits shares its
        outcome: one EvalError object, or one value.
        """
        if not fails.any():
            return out
        suspect = np.flatnonzero(fails & ~self.bad)
        keys = zip(*(a[suspect].view(np.int64).tolist() for pair in args for a in pair))
        outcomes = {}  # operand bits -> EvalError or Scalar; lives for this call only
        for k, key in zip(suspect.tolist(), keys):
            val = outcomes.get(key)
            if val is None:
                try:
                    val = _apply(e, [Scalar(re[k], im[k], self.kind) for re, im in args],
                                 self.kind)
                except EvalError as exc:
                    # keep the error, not its frames: a traceback would tie
                    # this evaluator and all its arrays into a reference cycle
                    exc.__traceback__ = exc.cause.__traceback__ = None
                    val = exc
                outcomes[key] = val
            if isinstance(val, EvalError):
                self.bad[k] = True
                self.first_errors[k] = val
            else:
                out[0][k], out[1][k] = val.re, val.im
        return out


_GRID_OPS = {
    Const: lambda ev, e: (ev.full(e.re), ev.full(e.im)),
    Var: lambda ev, e: (ev.u if e.name == "u" else ev.v, ev.full(0.0)),
    Unit: lambda ev, e: (ev.full(0.0), ev.full(1.0)),
    Add: lambda ev, e: tuple(map(np.add, ev.eval(e.a), ev.eval(e.b))),
    Sub: lambda ev, e: tuple(map(np.subtract, ev.eval(e.a), ev.eval(e.b))),
    Mul: lambda ev, e: algebra.mul_arrays(ev.eval(e.a), ev.eval(e.b), ev.sigma),
    Neg: lambda ev, e: tuple(map(np.negative, ev.eval(e.a))),
    Conj: lambda ev, e: (ev.eval(e.a)[0], -ev.eval(e.a)[1]),
    Div: _GridEvaluator.div, Pow: _GridEvaluator.pow, Call: _GridEvaluator.call,
}


# -- differentiation -----------------------------------------------------
# A _Derivatives pool keys each node it builds on the type, the scalar fields
# (never -0.0, which keys as 0.0) and the child objects, which the node holds,
# so equal derivative subtrees of one build are one object that evaluate_grid
# evaluates once.  Parsed nodes never merge: their positions reach error texts.

_CALL_DIFF = {"exp": "exp", "sin": "cos", "sinh": "cosh", "cosh": "sinh"}


class _Derivatives(dict):
    """One build of derivative trees; the dict is its node pool, dropped with it."""

    def node(self, cls, *fields) -> Expr:
        key = (cls, *(id(f) if isinstance(f, Expr) else f for f in fields))
        if key not in self:
            self[key] = cls(*fields)
        return self[key]

    def partial(self, e: Expr, wrt: str) -> Expr:
        """Exact partial derivative tree with respect to 'u' or 'v'."""
        node, partial = self.node, self.partial
        if isinstance(e, (Const, Unit)) or (isinstance(e, Pow) and e.n == 0):
            return node(Const, 0.0)
        if isinstance(e, Var):
            return node(Const, 1.0 if e.name == wrt else 0.0)
        if isinstance(e, (Add, Sub)):
            return node(type(e), partial(e.a, wrt), partial(e.b, wrt))
        if isinstance(e, (Mul, Div)):
            da, db = node(Mul, partial(e.a, wrt), e.b), node(Mul, e.a, partial(e.b, wrt))
            if isinstance(e, Mul):
                return node(Add, da, db)
            return node(Div, node(Sub, da, db), node(Pow, e.b, 2))
        if isinstance(e, Pow):
            outer = node(Mul, node(Const, float(e.n)), node(Pow, e.base, e.n - 1))
            return node(Mul, outer, partial(e.base, wrt))
        if isinstance(e, (Neg, Conj)):
            # conj is R-linear, so it commutes with real partials
            return node(type(e), partial(e.a, wrt))
        if isinstance(e, Call):
            if e.fn in _CALL_DIFF:
                outer = node(Call, _CALL_DIFF[e.fn], e.a)
            elif e.fn == "ln":
                outer = node(Div, node(Const, 1.0), e.a)
            elif e.fn == "cos":
                outer = node(Neg, node(Call, "sin", e.a))
            else:
                raise ValueError(f"no derivative rule for {e.fn}")
            return node(Mul, outer, partial(e.a, wrt))
        raise TypeError(type(e))

    def bar(self, e: Expr) -> Expr:
        dv = self.node(Mul, self.node(Unit), self.partial(e, "v"))
        return self.node(Mul, self.node(Const, 0.5), self.node(Sub, self.partial(e, "u"), dv))


def wirtinger_bar(e: Expr) -> Expr:
    """The conjugate Wirtinger operator (d/du - unit*d/dv)/2, built afresh.

    The companion holomorphic operator carries the plus sign on the
    v-term; both follow the same orientation convention throughout the
    package, in both algebras.
    """
    return _Derivatives().bar(e)


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

    @functools.cached_property
    def bars(self) -> tuple[Expr, Expr, Expr, Expr]:
        """The wirtinger_bar trees of psi, built once over one pool and kept with the data."""
        return tuple(map(_Derivatives().bar, self.psi))

    def eval_components(self, u: float, v: float) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return tuple(evaluate(p, u, v, self.kind) for p in self.psi)

    def on_grid(self, u, v) -> GridEval:
        """psi_1..psi_4 at every node of the broadcast (u, v) arrays."""
        return evaluate_grid(self.psi, u, v, self.kind)
