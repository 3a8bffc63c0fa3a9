"""Closed-form expressions in the time variable: evaluation, derivatives, parsing.

A ``CoeffExpr`` is a small immutable expression tree over rational constants,
the variable ``t``, arithmetic, integer powers and sin/cos/exp/sqrt.  It is
used for the time-dependent ODE coefficients: evaluation is double precision,
differentiation is exact and symbolic (needed e.g. to build da3/dt when
deriving the damping coefficient of the canonical Riccati family).

Evaluation is compiled: on first use each node builds a closure ``t -> float``
over its children's closures (constants converted to float once) and caches
it on the node, so a right-hand side called millions of times never walks the
tree or converts a ``Fraction`` again.  ``CoeffExpr.compiled`` hands out that
closure; ``eval(t)`` calls it.

The companion parser accepts the infix grammar used by the CLI: whitespace
insensitive, ``^`` for integer powers, ``/`` for division (so rationals are
written ``p/q``), and function calls ``sin(...)``, ``cos(...)``, ``exp(...)``,
``sqrt(...)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isfinite
from typing import Callable

__all__ = [
    "CoeffExpr",
    "Const",
    "TimeVar",
    "DomainError",
    "ParseError",
    "parse_expr",
]


class DomainError(ArithmeticError):
    """Evaluation hit a singular point (division by zero, sqrt of negative...)."""

    def __init__(self, t: float, node: "CoeffExpr", reason: str):
        self.t = t
        self.node = node
        self.reason = reason
        super().__init__(f"{reason} in {node} at t={t}")


class CoeffExpr:
    """Base expression node.  Subclasses implement _compile() and diff()."""

    __slots__ = ("_fn",)

    @property
    def compiled(self) -> Callable[[float], float]:
        """The evaluator ``t -> float``, built on first use and cached."""
        try:
            return self._fn
        except AttributeError:
            fn = self._compile()
            object.__setattr__(self, "_fn", fn)
            return fn

    def eval(self, t: float) -> float:
        return self.compiled(t)

    def _compile(self) -> Callable[[float], float]:
        raise NotImplementedError

    def diff(self) -> "CoeffExpr":
        raise NotImplementedError

    # operator sugar so coefficient formulas read naturally in code
    def __add__(self, other):
        return Add(self, _wrap(other))

    def __radd__(self, other):
        return Add(_wrap(other), self)

    def __sub__(self, other):
        return Sub(self, _wrap(other))

    def __rsub__(self, other):
        return Sub(_wrap(other), self)

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __rmul__(self, other):
        return Mul(_wrap(other), self)

    def __truediv__(self, other):
        return Div(self, _wrap(other))

    def __rtruediv__(self, other):
        return Div(_wrap(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n: int):
        return Pow(self, n)


def _wrap(x) -> CoeffExpr:
    if isinstance(x, CoeffExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, float):
        return Const(Fraction(x).limit_denominator(10**12))
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient expression")


class Const(CoeffExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def _compile(self):
        try:
            value = float(self.value)
        except OverflowError:  # a literal beyond the float range
            node = self

            def overflow(t):
                raise DomainError(t, node, "overflow")

            return overflow
        return lambda t: value

    def diff(self) -> CoeffExpr:
        return Const(0)

    def __str__(self):
        return str(self.value)


class TimeVar(CoeffExpr):
    __slots__ = ()

    def _compile(self):
        return lambda t: t

    def diff(self) -> CoeffExpr:
        return Const(1)

    def __str__(self):
        return "t"


class _Binary(CoeffExpr):
    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left: CoeffExpr, right: CoeffExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self):
        return f"({self.left} {self.symbol} {self.right})"


class Add(_Binary):
    symbol = "+"

    def _compile(self):
        left, right, node = self.left.compiled, self.right.compiled, self

        def add(t):
            value = left(t) + right(t)
            if isfinite(value):
                return value
            raise DomainError(t, node, "non-finite value")

        return add

    def diff(self):
        return _add(self.left.diff(), self.right.diff())


class Sub(_Binary):
    symbol = "-"

    def _compile(self):
        left, right, node = self.left.compiled, self.right.compiled, self

        def sub(t):
            value = left(t) - right(t)
            if isfinite(value):
                return value
            raise DomainError(t, node, "non-finite value")

        return sub

    def diff(self):
        return _sub(self.left.diff(), self.right.diff())


class Mul(_Binary):
    symbol = "*"

    def _compile(self):
        left, right, node = self.left.compiled, self.right.compiled, self

        def mul(t):
            value = left(t) * right(t)
            if isfinite(value):
                return value
            raise DomainError(t, node, "non-finite value")

        return mul

    def diff(self):
        return _add(
            _mul(self.left.diff(), self.right), _mul(self.left, self.right.diff())
        )


class Div(_Binary):
    symbol = "/"

    def _compile(self):
        left, right, node = self.left.compiled, self.right.compiled, self

        def div(t):
            den = right(t)  # the denominator is evaluated first
            if den == 0.0:
                raise DomainError(t, node, "division by zero")
            value = left(t) / den
            if isfinite(value):
                return value
            raise DomainError(t, node, "non-finite value")

        return div

    def diff(self):
        num = _sub(
            _mul(self.left.diff(), self.right), _mul(self.left, self.right.diff())
        )
        return Div(num, Pow(self.right, 2))


class Neg(CoeffExpr):
    __slots__ = ("arg",)

    def __init__(self, arg: CoeffExpr):
        object.__setattr__(self, "arg", arg)

    def _compile(self):
        arg = self.arg.compiled
        return lambda t: -arg(t)

    def diff(self):
        return Neg(self.arg.diff())

    def __str__(self):
        return f"(-{self.arg})"


class Pow(CoeffExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: CoeffExpr, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("power exponent must be an integer")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def _compile(self):
        base_fn, n, node = self.base.compiled, self.exponent, self

        def power(t):
            base = base_fn(t)
            if base == 0.0 and n < 0:
                raise DomainError(t, node, "zero raised to a negative power")
            try:
                value = base**n
            except OverflowError:
                raise DomainError(t, node, "overflow") from None
            if isfinite(value):
                return value
            raise DomainError(t, node, "non-finite value")

        return power

    def diff(self):
        n = self.exponent
        if n == 0:
            return Const(0)
        return _mul(_mul(Const(n), Pow(self.base, n - 1)), self.base.diff())

    def __str__(self):
        return f"({self.base}^{self.exponent})"


class _Unary(CoeffExpr):
    __slots__ = ("arg",)
    fname = "?"

    def __init__(self, arg: CoeffExpr):
        object.__setattr__(self, "arg", arg)

    def __str__(self):
        return f"{self.fname}({self.arg})"


class Sin(_Unary):
    fname = "sin"

    def _compile(self):
        arg, sin = self.arg.compiled, math.sin
        return lambda t: sin(arg(t))

    def diff(self):
        return _mul(Cos(self.arg), self.arg.diff())


class Cos(_Unary):
    fname = "cos"

    def _compile(self):
        arg, cos = self.arg.compiled, math.cos
        return lambda t: cos(arg(t))

    def diff(self):
        return _mul(Neg(Sin(self.arg)), self.arg.diff())


class Exp(_Unary):
    fname = "exp"

    def _compile(self):
        arg_fn, exp, node = self.arg.compiled, math.exp, self

        def exponential(t):
            arg = arg_fn(t)
            try:
                value = exp(arg)
            except OverflowError:
                raise DomainError(t, node, "overflow") from None
            if isfinite(value):
                return value
            raise DomainError(t, node, "non-finite value")

        return exponential

    def diff(self):
        return _mul(Exp(self.arg), self.arg.diff())


class Sqrt(_Unary):
    fname = "sqrt"

    def _compile(self):
        arg_fn, sqrt, node = self.arg.compiled, math.sqrt, self

        def square_root(t):
            v = arg_fn(t)
            if v < 0.0:
                raise DomainError(t, node, "sqrt of a negative value")
            return sqrt(v)

        return square_root

    def diff(self):
        return Div(self.arg.diff(), _mul(Const(2), Sqrt(self.arg)))


def _is_const(e: CoeffExpr, v) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: CoeffExpr, b: CoeffExpr) -> CoeffExpr:
    # light folding keeps derivative trees small
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: CoeffExpr, b: CoeffExpr) -> CoeffExpr:
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: CoeffExpr, b: CoeffExpr) -> CoeffExpr:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


# ---------------------------------------------------------------------------
# parser


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(self.text, self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> CoeffExpr:
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return expr

    def expr(self) -> CoeffExpr:
        node = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                node = Add(node, self.term())
            elif c == "-":
                self.pos += 1
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> CoeffExpr:
        node = self.unary()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                node = Mul(node, self.unary())
            elif c == "/":
                self.pos += 1
                node = Div(node, self.unary())
            else:
                return node

    def unary(self) -> CoeffExpr:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return Neg(self.unary())
        if c == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> CoeffExpr:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                self.pos += 1
                sign = -1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                raise self.error("expected an integer exponent after '^'")
            return Pow(base, sign * int(self.text[start : self.pos]))
        return base

    def atom(self) -> CoeffExpr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.expr()
            self.take(")")
            return node
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "t":
                return TimeVar()
            if name in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return _FUNCTIONS[name](arg)
            self.pos = start
            raise self.error(f"unknown identifier {name!r}")
        raise self.error("expected a number, 't', a function call or '('")

    def number(self) -> CoeffExpr:
        start = self.pos
        seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot:
                seen_dot = True
                self.pos += 1
            else:
                break
        token = self.text[start : self.pos]
        if token in ("", "."):
            raise self.error("malformed number")
        return Const(Fraction(token))  # decimals become exact rationals


def parse_expr(text: str) -> CoeffExpr:
    """Parse an infix coefficient expression; raises ParseError with position."""
    return _Parser(text).parse()
