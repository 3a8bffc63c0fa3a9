"""Slow reference implementations the fast paths are checked against.

``tree_eval`` walks a ``CoeffExpr`` node by node, the way evaluation worked
before it was compiled into closures.  ``dopri5_reference`` is the
Dormand-Prince 5(4) loop before FSAL: seven right-hand-side evaluations per
attempted step, stage sums accumulated left to right from 0 (what the builtin
``sum`` does on Python 3.11; later versions compensate float sums, so the
accumulation is spelled out here).
"""

import math

from liesuper.coeffexpr import (
    Add,
    Const,
    Cos,
    Div,
    DomainError,
    Exp,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    TimeVar,
)
from liesuper.odeint import (
    STEP_UNDERFLOW_FACTOR,
    BlowUp,
    NonFinite,
    Trajectory,
)


def _finite(node, t, value):
    if not math.isfinite(value):
        raise DomainError(t, node, "non-finite value")
    return value


def tree_eval(e, t):
    """Evaluate ``e`` at ``t`` by walking the tree, children left to right."""
    if isinstance(e, Const):
        try:
            return float(e.value)
        except OverflowError:
            raise DomainError(t, e, "overflow") from None
    if isinstance(e, TimeVar):
        return t
    if isinstance(e, Add):
        return _finite(e, t, tree_eval(e.left, t) + tree_eval(e.right, t))
    if isinstance(e, Sub):
        return _finite(e, t, tree_eval(e.left, t) - tree_eval(e.right, t))
    if isinstance(e, Mul):
        return _finite(e, t, tree_eval(e.left, t) * tree_eval(e.right, t))
    if isinstance(e, Div):
        den = tree_eval(e.right, t)
        if den == 0.0:
            raise DomainError(t, e, "division by zero")
        return _finite(e, t, tree_eval(e.left, t) / den)
    if isinstance(e, Neg):
        return -tree_eval(e.arg, t)
    if isinstance(e, Pow):
        base = tree_eval(e.base, t)
        if base == 0.0 and e.exponent < 0:
            raise DomainError(t, e, "zero raised to a negative power")
        try:
            value = base**e.exponent
        except OverflowError:
            raise DomainError(t, e, "overflow") from None
        return _finite(e, t, value)
    if isinstance(e, Sin):
        return math.sin(tree_eval(e.arg, t))
    if isinstance(e, Cos):
        return math.cos(tree_eval(e.arg, t))
    if isinstance(e, Exp):
        arg = tree_eval(e.arg, t)
        try:
            value = math.exp(arg)
        except OverflowError:
            raise DomainError(t, e, "overflow") from None
        return _finite(e, t, value)
    if isinstance(e, Sqrt):
        v = tree_eval(e.arg, t)
        if v < 0.0:
            raise DomainError(t, e, "sqrt of a negative value")
        return math.sqrt(v)
    raise TypeError(f"unknown node {type(e).__name__}")


# Dormand-Prince 5(4) tableau, restated independently of liesuper.odeint
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _sum_from_zero(terms):
    acc = 0
    for term in terms:
        acc = acc + term
    return acc


def _rhs_checked(sys, t, y):
    try:
        d = sys.rhs(t, y[0], y[1])
    except OverflowError:
        raise NonFinite(t) from None
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise NonFinite(t)
    return d


def dopri5_reference(sys, ic, t0, grid, tol):
    """Same contract as ``liesuper.odeint.integrate``, seven stages a step."""
    grid = list(grid)
    span = max(grid[-1] - t0, 1e-300)
    h_min = STEP_UNDERFLOW_FACTOR * span
    atol = rtol = tol

    t = t0
    y = (float(ic[0]), float(ic[1]))
    out_states = [y]
    h = span / 100.0
    err_prev = 1.0
    steps = 0

    for t_target in grid[1:]:
        while t < t_target:
            h = min(h, t_target - t)
            if h < h_min:
                raise BlowUp(t)
            k = []
            for s in range(7):
                ts = t + _C[s] * h
                ys = tuple(
                    y[i] + h * _sum_from_zero(_A[s][j] * k[j][i] for j in range(s))
                    for i in range(2)
                )
                k.append(_rhs_checked(sys, ts, ys))
            y5 = tuple(
                y[i] + h * _sum_from_zero(_B5[s] * k[s][i] for s in range(7))
                for i in range(2)
            )
            y4 = tuple(
                y[i] + h * _sum_from_zero(_B4[s] * k[s][i] for s in range(7))
                for i in range(2)
            )
            if not all(math.isfinite(c) for c in y5):
                raise NonFinite(t)
            err = math.sqrt(
                0.5
                * _sum_from_zero(
                    ((y5[i] - y4[i]) / (atol + rtol * max(abs(y[i]), abs(y5[i])))) ** 2
                    for i in range(2)
                )
            )
            steps += 1
            if err <= 1.0:
                t = t + h
                y = y5
                factor = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
                err_prev = max(err, 1e-10)
            else:
                factor = max(0.9 * (err + 1e-300) ** -0.2, 0.2)
            h = h * min(max(factor, 0.2), 5.0)
        out_states.append(y)

    return Trajectory(list(grid), out_states, tol=tol, steps=steps)
