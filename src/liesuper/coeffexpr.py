"""Closed-form expressions in the time variable: evaluation, derivatives, parsing.

A ``CoeffExpr`` is a small immutable expression tree over rational constants,
the variable ``t``, arithmetic, integer powers and sin/cos/exp/sqrt.  It is
used for the time-dependent ODE coefficients, and with the state leaves ``x``
and ``v`` (``StateVar``) for each family's acceleration F(t, x, v) over them:
evaluation is double precision, differentiation is exact and symbolic (needed
e.g. to build da3/dt for the damping of the canonical Riccati family).

Evaluation is generated code.  ``CoeffExpr.compiled`` writes one
straight-line Python function of the tree, ``(t) -> value``, or
``(t, x, v) -> value`` when the tree reads the state, on first use, and
caches it on the node; ``eval(t)`` calls it.  Nodes are evaluated in
tree-walk order (a ``Div`` evaluates its denominator first), every
structurally repeated subtree is computed once, and every check is inline
and raises the ``DomainError`` the tree walk would raise, naming the
first-evaluated node.  A node that reads the state gets no overflow or
finiteness check: a state too large for the formula ends in the bare
``OverflowError`` or non-finite value that the integrator reports.  A
subtree that reads neither t nor the state is folded: evaluated once, by
the same lines, when the function is generated, unless those lines raise.
Constants (as floats) and nodes are bound as the function's globals, never
written into the source, so no user text reaches the source and the source
depends only on the shape of the tree and on which subtrees fold; the
compiled code is cached by source.

The companion parser accepts the infix grammar used by the CLI: whitespace
insensitive, ``^`` for integer powers, ``/`` for division (so rationals are
written ``p/q``), and function calls ``sin(...)``, ``cos(...)``, ``exp(...)``,
``sqrt(...)``.  It refuses an expression deeper than ``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import isfinite
from typing import Callable

from .exactpoly import _immutable

__all__ = [
    "CoeffExpr",
    "Const",
    "TimeVar",
    "StateVar",
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
    """Base expression node.  Subclasses implement _emit() and diff()."""

    __slots__ = ("_fn",)
    depth = 1  # levels of the tree from this node down; a leaf is one
    state = False  # reads x or v: true when any child does
    constant = False  # reads neither t nor x nor v: true when every child does

    __setattr__ = __delattr__ = _immutable

    @property
    def compiled(self) -> Callable[..., float]:
        """The evaluator ``(t)`` or ``(t, x, v) -> float``, built once, cached."""
        try:
            return self._fn
        except AttributeError:
            fn = _kernel(self)
            object.__setattr__(self, "_fn", fn)
            return fn

    def eval(self, t: float) -> float:
        return self.compiled(t)

    def _emit(self, k: "_Source") -> str:
        """Write this node's lines into ``k``; return the name of its value."""
        raise NotImplementedError

    def diff(self) -> "CoeffExpr":
        raise NotImplementedError

    # operator sugar so coefficient formulas read naturally in code
    def __add__(self, other):
        return Add(self, _wrap(other))

    def __sub__(self, other):
        return Sub(self, _wrap(other))

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __truediv__(self, other):
        return Div(self, _wrap(other))

    def __pow__(self, n: int):
        return Pow(self, n)


def _wrap(x) -> CoeffExpr:
    if isinstance(x, CoeffExpr):
        return x
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient expression")


class Const(CoeffExpr):
    __slots__ = ("value",)
    constant = True

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def _emit(self, k):
        try:
            value = float(self.value)
        except OverflowError:  # a literal beyond the float range
            k.lines.append(k.fail(self, "overflow"))
            return "None"  # no line after the raise runs
        return k.const(value)

    def diff(self) -> CoeffExpr:
        return Const(0)

    def __str__(self):
        return str(self.value)


class TimeVar(CoeffExpr):
    __slots__ = ()

    def _emit(self, k):
        return "t"

    def diff(self) -> CoeffExpr:
        return Const(1)

    def __str__(self):
        return "t"


class StateVar(CoeffExpr):
    """The position ``x`` or the velocity ``v`` of a right-hand side F(t, x, v)."""

    __slots__ = ("name",)
    state = True

    def __init__(self, name: str):
        if name not in ("x", "v"):  # written into the kernel's source
            raise ValueError(f"a state variable is x or v, not {name!r}")
        object.__setattr__(self, "name", name)

    def _emit(self, k):
        return self.name

    def __str__(self):
        return self.name


class _Binary(CoeffExpr):
    __slots__ = ("left", "right", "depth", "state", "constant")
    symbol = "?"

    def __init__(self, left: CoeffExpr, right: CoeffExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "depth", 1 + max(left.depth, right.depth))
        object.__setattr__(self, "state", left.state or right.state)
        object.__setattr__(self, "constant", left.constant and right.constant)

    def _emit(self, k):  # Add, Sub, Mul
        left, right = k.operand(self.left), k.operand(self.right)
        return k.emit(self, f"{left} {self.symbol} {right}", finite=True)

    def __str__(self):
        return f"({self.left} {self.symbol} {self.right})"


class Add(_Binary):
    symbol = "+"

    def diff(self):
        return _add(self.left.diff(), self.right.diff())


class Sub(_Binary):
    symbol = "-"

    def diff(self):
        return _sub(self.left.diff(), self.right.diff())


class Mul(_Binary):
    symbol = "*"

    def diff(self):
        return _add(
            _mul(self.left.diff(), self.right), _mul(self.left, self.right.diff())
        )


class Div(_Binary):
    symbol = "/"

    def _emit(self, k):
        den = k.operand(self.right)  # the denominator is evaluated first
        if not k.bound.get(den):  # a folded nonzero constant needs no test
            k.guard(self, f"{den} == 0.0", "division by zero")
        return k.emit(self, f"{k.operand(self.left)} / {den}", finite=True)

    def diff(self):
        du, dw = self.left.diff(), self.right.diff()
        if _is_const(dw, 0):  # u/c: squaring c could overflow where c does not
            return Div(du, self.right)
        return Div(_sub(_mul(du, self.right), _mul(self.left, dw)), Pow(self.right, 2))


class Pow(CoeffExpr):
    __slots__ = ("base", "exponent", "depth", "state", "constant")

    def __init__(self, base: CoeffExpr, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("power exponent must be an integer")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "depth", 1 + base.depth)
        object.__setattr__(self, "state", base.state)
        object.__setattr__(self, "constant", base.constant)

    def _emit(self, k):
        base = k.operand(self.base)
        if self.exponent < 0:
            k.guard(self, f"{base} == 0.0", "zero raised to a negative power")
        return k.emit(self, f"{base} ** {k.const(self.exponent)}",
                      overflow=True, finite=True)

    def diff(self):
        n = self.exponent
        if n == 0:
            return Const(0)
        return _mul(_mul(Const(n), Pow(self.base, n - 1)), self.base.diff())

    def __str__(self):
        return f"({self.base}^{self.exponent})"


class _Unary(CoeffExpr):
    __slots__ = ("arg", "depth", "state", "constant")
    fname = "?"

    def __init__(self, arg: CoeffExpr):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "depth", 1 + arg.depth)
        object.__setattr__(self, "state", arg.state)
        object.__setattr__(self, "constant", arg.constant)

    def _emit(self, k):  # Sin, Cos
        return k.emit(self, f"{self.fname}({k.operand(self.arg)})")

    def __str__(self):
        return f"{self.fname}({self.arg})"


class Neg(_Unary):
    def _emit(self, k):
        return k.emit(self, f"-{k.operand(self.arg)}")

    def diff(self):
        return Neg(self.arg.diff())

    def __str__(self):
        return f"(-{self.arg})"


class Sin(_Unary):
    fname = "sin"

    def diff(self):
        return _mul(Cos(self.arg), self.arg.diff())


class Cos(_Unary):
    fname = "cos"

    def diff(self):
        return _mul(Neg(Sin(self.arg)), self.arg.diff())


class Exp(_Unary):
    fname = "exp"

    def _emit(self, k):
        return k.emit(self, f"exp({k.operand(self.arg)})",
                      overflow=True, finite=True)

    def diff(self):
        return _mul(Exp(self.arg), self.arg.diff())


class Sqrt(_Unary):
    fname = "sqrt"

    def _emit(self, k):
        arg = k.operand(self.arg)
        k.guard(self, f"{arg} < 0.0", "sqrt of a negative value")
        return k.emit(self, f"sqrt({arg})")

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
# code generation

# what a kernel reads besides its own constants and nodes
_RUNTIME = {"DomainError": DomainError, "isfinite": isfinite, "sqrt": math.sqrt,
            "exp": math.exp, "sin": math.sin, "cos": math.cos}


class _Source:
    """The lines of one kernel and the globals they read.

    ``operand(node)`` is the name that holds the node's value once the lines
    so far have run: ``t``, ``x``, ``v``, a constant or a local.  Nodes are
    visited in tree-walk order and each distinct expression text is assigned
    once.  Two subtrees with the same text compute the same value with the
    same check outcomes, so the first occurrence, which the tree walk would
    evaluate first, is the one that runs and whose node a failing check names.

    With ``fold``, a compound node that reads neither ``t`` nor the state
    is evaluated once, here, by the lines it would add, and its operand is
    that value as a constant.  When those lines raise, the node's lines go
    into the kernel instead, so that it raises at the kernel's ``t``.
    """

    def __init__(self, fold: bool = True):
        self.fold = fold
        self.lines: list[str] = []
        self.bound: dict[str, object] = {}  # global name -> constant or node
        self.consts: dict[tuple, str] = {}  # (type, repr) -> global name
        self.locals: dict[str, str] = {}  # expression text -> local name
        self.tested: set[str] = set()  # guard conditions already emitted
        self.seen: dict[CoeffExpr, str] = {}  # node (by identity) -> operand

    def operand(self, node: CoeffExpr) -> str:
        name = self.seen.get(node)
        if name is None:
            name = self.seen[node] = self.folded(node) or node._emit(self)
        return name

    def folded(self, node: CoeffExpr) -> str | None:
        """The constant holding a foldable node's value; None if it raises."""
        if not (self.fold and node.constant) or isinstance(node, Const):
            return None
        try:
            return self.const(_kernel(node, fold=False)(0.0))
        except DomainError:
            return None

    def bind(self, prefix: str, obj) -> str:
        name = f"{prefix}{len(self.bound)}"
        self.bound[name] = obj
        return name

    def const(self, value: float | int) -> str:
        # an int exponent is not a float constant, and -0.0 is not 0.0
        key = (type(value), repr(value))
        if key not in self.consts:
            self.consts[key] = self.bind("c", value)
        return self.consts[key]

    def guard(self, node: CoeffExpr, condition: str, reason: str) -> None:
        """Raise for ``node`` when ``condition`` holds, tested once per text.

        A condition that was false once is false again: the value it tests
        is the same local.
        """
        if condition not in self.tested:
            self.tested.add(condition)
            self.lines.append(f"if {condition}: " + self.fail(node, reason))

    def emit(self, node: CoeffExpr, expr: str,
             overflow: bool = False, finite: bool = False) -> str:
        """The local that holds ``expr``, assigned once with the node's checks.

        ``overflow`` maps an OverflowError of the operation, and ``finite`` a
        non-finite result, to a DomainError naming ``node``; a node that
        reads the state gets neither.
        """
        name = self.locals.get(expr)
        if name is not None:
            return name
        name = self.locals[expr] = f"v{len(self.locals)}"
        if node.state:
            overflow = finite = False
        if overflow:
            self.lines += ["try:", f"    {name} = {expr}", "except OverflowError:",
                           "    " + self.fail(node, "overflow") + " from None"]
        else:
            self.lines.append(f"{name} = {expr}")
        if finite:
            self.lines.append(
                f"if not isfinite({name}): " + self.fail(node, "non-finite value"))
        return name

    def fail(self, node: CoeffExpr, reason: str) -> str:
        return f"raise DomainError(t, {self.bind('n', node)}, {reason!r})"


def _generate(expr: CoeffExpr,
              fold: bool = True) -> tuple[str, dict[str, object]]:
    """The source of the kernel for ``expr`` and the globals it binds."""
    k = _Source(fold)
    k.lines.append("return " + k.operand(expr))
    params = "t, x, v" if expr.state else "t"
    body = "".join(f"    {line}\n" for line in k.lines)
    return f"def kernel({params}):\n{body}", k.bound


# hit when one process lifts the same shapes again: a sweep over constants,
# or cli.main called repeatedly in-process
@functools.lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<coeffexpr kernel>", "exec")


def _kernel(expr: CoeffExpr, fold: bool = True) -> Callable:
    source, bound = _generate(expr, fold)
    namespace = {**_RUNTIME, **bound}
    exec(_code(source), namespace)
    return namespace["kernel"]


# ---------------------------------------------------------------------------
# parser


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt}
# str.isdigit also holds for '²' and '٣', which int() refuses or Fraction reads
_DIGITS = frozenset("0123456789")

# deepest tree, and deepest nesting of brackets, calls and signs, the parser
# accepts.  The parser, code generation, ``diff`` and ``str`` recurse once per
# level, and a derivative is about twice as deep as its tree: at 64 levels
# lifting a Riccati system stays under 400 of Python's default 1,000 frames
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0  # brackets, calls and signs the parser is inside

    def too_deep(self) -> ParseError:
        return self.error(f"expression nested more than {MAX_DEPTH} levels deep")

    def inside(self, parse) -> CoeffExpr:
        """parse() one bracket, call or sign further in."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise self.too_deep()
        node = parse()
        self.open -= 1
        return node

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
        if expr.depth > MAX_DEPTH:  # a long chain such as t+t+...+t
            raise self.too_deep()
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
            return Neg(self.inside(self.unary))
        if c == "+":
            self.pos += 1
            return self.inside(self.unary)
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
            while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
                self.pos += 1
            if start == self.pos:
                raise self.error("expected an integer exponent after '^'")
            return Pow(base, sign * int(self.text[start : self.pos]))
        return base

    def atom(self) -> CoeffExpr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.inside(self.expr)
            self.take(")")
            return node
        if c in _DIGITS or c == ".":
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
                arg = self.inside(self.expr)
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
            if ch in _DIGITS:
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
