"""First-order lifts of the supported SODE families and their numerical integration.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control.  By default it clips steps so that every grid time is hit
exactly.  Dense output clips steps only to the last grid time, so their size
follows the tolerance, and fills the grid times inside a step from the
quintic Hermite interpolant of x through (x, v, F) at both ends (Hairer,
Norsett & Wanner, Solving ODEs I, II.6), which keeps x twice differentiable
for the finite-difference residual below.  The pair is FSAL: the last
stage of an accepted step is the right-hand side at the new state, so it is
the first stage of the next step, and a rejected step keeps its first stage.
Each attempted step costs six right-hand-side evaluations, plus one for the
very first stage.  The cubic nonlinearity of the supported equations admits
finite-time blow-up, so step-size underflow is reported as ``BlowUp`` rather
than ground through; stiff problems, whose steps shrink without underflowing,
end in ``StepBudgetExceeded`` once ``STEP_BUDGET`` is spent.

Each family is one row of ``FAMILIES``: its coefficients with their defaults
and its acceleration F(t, x, v) as a ``CoeffExpr`` tree, the Riccati one or
``general``'s cubic, onto which ``mdpi`` (h = -f) and ``exam2`` (g = lam1)
map; a cubic term whose coefficient is the literal 0 adds no operation.  A
lift's rhs (t, x, v) -> F is the tree's compiled evaluator: it runs in the
formula's order, a shared subtree such as sqrt(a3) once per stage.

An independent finite-difference residual oracle is provided to check that a
trajectory (however it was produced) actually satisfies its equation.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

from .coeffexpr import CoeffExpr, Const, Neg, Sqrt, StateVar, _mul, _sub, parse_expr

__all__ = [
    "ConstraintViolation",
    "BlowUp",
    "NonFinite",
    "StepBudgetExceeded",
    "GridTooCoarse",
    "FirstOrderSystem",
    "Trajectory",
    "lift_sode",
    "riccati_damping",
    "integrate",
    "residual",
]

# how far below the window length the step size may shrink before we call it
# a blow-up; no lifespan policy is prescribed for these equations, so this
# threshold is our own convention
STEP_UNDERFLOW_FACTOR = 1e-14

# attempted steps allowed beyond one per grid interval before integrate gives
# up; the largest benchmark integration takes about 2,000 steps
STEP_BUDGET = 100_000

# a3 > 0 is checked at the A3_PANELS + 1 ends of equal panels of the window
A3_PANELS = 64

X, V = StateVar("x"), StateVar("v")


class ConstraintViolation(ValueError):
    """A coefficient constraint failed (e.g. a3(0) != 1 or a3 <= 0)."""

    def __init__(self, constraint: str, t: float | None = None):
        self.constraint = constraint
        self.t = t
        at = f" at t={t}" if t is not None else ""
        super().__init__(f"constraint violated: {constraint}{at}")


class BlowUp(ArithmeticError):
    """Step size underflowed: the solution very likely blows up near t_star."""

    def __init__(self, t_star: float):
        self.t_star = t_star
        super().__init__(f"step size underflow near t={t_star}; finite-time blow-up")


class NonFinite(ArithmeticError):
    """The right-hand side returned a non-finite value."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"non-finite right-hand side at t={t}")


class StepBudgetExceeded(ArithmeticError):
    """The integration attempted more steps than its budget (likely stiff)."""

    def __init__(self, t: float, budget: int):
        self.t = t
        self.budget = budget
        super().__init__(
            f"step budget of {budget} attempted steps exceeded at t={t}")


class GridTooCoarse(ValueError):
    """The residual stencil needs at least 7 uniform grid points."""


@dataclass(frozen=True)
class FirstOrderSystem:
    """The lift xdot = v, vdot = F(t, x, v); ``rhs(t, x, v)`` returns F alone."""

    family: str
    rhs: Callable[[float, float, float], float]
    coeffs: dict[str, CoeffExpr] = field(default_factory=dict)


def _as_expr(c) -> CoeffExpr:
    if isinstance(c, CoeffExpr):
        return c
    if isinstance(c, str):
        return parse_expr(c)
    return Const(c)


def riccati_damping(
    a2: CoeffExpr, a3: CoeffExpr
) -> tuple[CoeffExpr, CoeffExpr]:
    """The derived damping coefficients of the canonical Riccati family.

    b0 = a2/sqrt(a3) - a3'/(2 a3)  and  b1 = 3 sqrt(a3), built symbolically
    (a3 is differentiated exactly, then everything is evaluated numerically).
    """
    sqrt_a3 = Sqrt(a3)
    b0 = a2 / sqrt_a3 - a3.diff() / (Const(2) * a3)
    b1 = Const(3) * sqrt_a3
    return b0, b1


def _check_riccati_constraints(a3: CoeffExpr, interval):
    if abs(a3.eval(0.0) - 1.0) > 1e-12:
        raise ConstraintViolation("a3(0) = 1", 0.0)
    t0, t1 = interval
    for i in range(A3_PANELS + 1):
        t = t0 + (t1 - t0) * i / A3_PANELS
        if a3.eval(t) <= 0.0:
            raise ConstraintViolation("a3(t) > 0", t)


def _cubic(f: CoeffExpr, g: CoeffExpr, h: CoeffExpr) -> CoeffExpr:
    """-3xv - x^3 - f(v+x^2) - gx - h; no Const(0) term, no Const(1) factor."""
    return _sub(_sub(_sub(Const(-3) * X * V - X**3, _mul(f, V + X**2)), _mul(g, X)), h)


# family -> (its coefficients with their defaults, its acceleration F(t, x, v)
# as a tree over them): mdpi is the cubic with h = -f, exam2 with g = lam1, and
# a literal 0 drops its term.  The Riccati row also reads b0, b1 (from a2, a3).
FAMILIES = {
    "mdpi": ({"f": 0}, lambda f: _cubic(Const(0), Const(0), Neg(f))),
    "exam2": ({"lam1": 0}, lambda lam1: _cubic(Const(0), lam1, Const(0))),
    "general": ({"f": 0, "g": 0, "h": 0}, _cubic),
    "riccati": ({"a0": 0, "a1": 0, "a2": 0, "a3": 1},
                lambda a0, a1, a2, a3, b0, b1:
                Neg(b0 + b1 * X) * V - a0 - a1 * X - a2 * X**2 - a3 * X**3),
}


def _system(family: str, coeffs: dict[str, CoeffExpr]) -> FirstOrderSystem:
    """The lift whose rhs (t, x, v) -> F is F's tree, compiled."""
    accel = FAMILIES[family][1](**coeffs)
    return FirstOrderSystem(family, accel.compiled, coeffs)


def lift_sode(family: str, coeffs: dict | None = None,
              interval: tuple[float, float] = (0.0, 1.0)) -> FirstOrderSystem:
    """Build the first-order lift of one of the supported SODE families.

    family / coefficients (``mdpi`` and ``exam2`` are ``general`` with h = -f
    and with g = lam1; a cubic term of literal-0 coefficient costs nothing):
      * ``mdpi``:    f            ->  vdot = -3xv - x^3 + f(t)
      * ``exam2``:   lam1         ->  vdot = -3xv - x^3 - lam1*x
      * ``general``: f, g, h      ->  vdot = -3xv - x^3 - f(t)(v+x^2) - g(t)x - h(t)
      * ``riccati``: a0, a1, a2, a3 -> vdot = -(b0+b1*x)v - a0 - a1*x - a2*x^2 - a3*x^3
        with the derived b0, b1 (see ``riccati_damping``); requires a3(0)=1
        and a3 > 0 sampled over ``interval``.

    Coefficient values may be CoeffExpr trees, expression strings, or numbers;
    a missing one takes its default (a3 = 1, the others 0), and a name the
    family does not have is a ValueError.  ``rhs`` is the acceleration
    tree's compiled evaluator, so it evaluates in the formula's order.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"expected one of {tuple(FAMILIES)}")
    defaults, coeffs = FAMILIES[family][0], coeffs or {}
    for name in coeffs:
        if name not in defaults:
            raise ValueError(f"family {family!r} has no coefficient {name!r}; "
                             f"its coefficients are {', '.join(defaults)}")
    # parsed in the order given: the first bad expression is the one reported
    given = {name: _as_expr(c) for name, c in coeffs.items()}
    exprs = {name: given.get(name, Const(default))
             for name, default in defaults.items()}
    if family == "riccati":
        _check_riccati_constraints(exprs["a3"], interval)
        exprs["b0"], exprs["b1"] = riccati_damping(exprs["a2"], exprs["a3"])
    return _system(family, exprs)


@dataclass(frozen=True)
class Trajectory:
    """A solution sampled on a strictly increasing time grid; frozen.  With
    ``_checked=True`` it skips the walk over the times; only ``integrate`` (on
    the tuple grid it checked) and ``superpose._reconstruct`` (on a list copy of
    a tuple grid a constructor checked) pass it: a checked tuple cannot change."""

    times: Sequence[float]
    states: Sequence[tuple[float, float]]
    tol: float = float("nan")
    steps: int = 0  # attempted steps
    rejected: int = 0  # of which rejected
    rhs_calls: int = 0  # right-hand-side evaluations
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        for a, b in () if _checked else zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def x(self) -> list[float]:
        return [s[0] for s in self.states]

    def write_csv(self, fh) -> None:
        """Write as CSV with header t,x,v at full double precision."""
        flat = [y for t, (x, v) in zip(self.times, self.states) for y in (t, x, v)]
        fh.write("t,x,v\n" + "%.17g,%.17g,%.17g\n" * len(self.times) % tuple(flat))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        """Read a t,x,v CSV; a bad row raises ValueError naming file and line.

        The body is parsed in bulk: blank lines dropped, every row held to
        exactly two commas (so a short row cannot lend a value to the next),
        one float conversion and one finiteness check over all values, and
        the constructor's check that the times increase.  Only when that
        fails are the lines read one by one, to name the first bad row.
        """
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "t,x,v":
                raise ValueError(f"unexpected CSV header {header!r} in {path}")
            lines = fh.read().split("\n")
        rows = list(filter(str.strip, lines))
        # each row end becomes a field "\n" of its own, which no row can
        # hold: every row has two commas exactly when those n - 1 fields
        # fill every fourth place
        fields = ",\n,".join(rows).split(",")
        if (len(fields) == 4 * len(rows) - 1
                and fields[3::4] == ["\n"] * (len(rows) - 1)):
            del fields[3::4]
            try:
                values = list(map(float, fields))
                if all(map(math.isfinite, values)):
                    return cls(values[0::3], list(zip(values[1::3], values[2::3])))
            except ValueError:  # a field that is no float, or times out of order
                pass
        times, states = [], []
        for lineno, line in enumerate(lines, 2):
            if not line.strip():
                continue
            try:
                t, x, v = map(float, line.strip().split(","))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if not all(map(math.isfinite, (t, x, v))):
                raise ValueError(f"{path}, line {lineno}: non-finite value")
            if times and not t > times[-1]:
                raise ValueError(
                    f"{path}, line {lineno}: times must be strictly increasing"
                )
            times.append(t)
            states.append((x, v))
        return cls(times, states)


# Dormand-Prince 5(4) tableau.  The fifth-order weights are the last row of
# _A with weight 0 on the last stage (the pair is FSAL), so the last stage
# point y + h*sum(_A[6][j]*k[j]) is the fifth-order solution itself.
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
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _hermite_fill(out, grid, j, last, t, h, x0, v0, f0, x1, v1, f1) -> int:
    """Append (x, v) at grid[j], grid[j + 1], ... before grid[last] up to
    t + h; return the next j.  x is the quintic in theta = (time - t)/h with
    value, slope and curvature (x0, v0, f0) at t and (x1, v1, f1) at t + h;
    v is its derivative."""
    t1 = t + h
    if grid[j] > t1:  # the step fills no grid time
        return j
    d, a, b, p, q = x1 - x0, h * v0, h * v1, h * h * f0, h * h * f1
    c2 = 0.5 * p
    c3 = 10 * d - 6 * a - 4 * b - 1.5 * p + 0.5 * q
    c4 = -15 * d + 8 * a + 7 * b + 1.5 * p - q
    c5 = 6 * d - 3 * a - 3 * b - 0.5 * p + 0.5 * q
    s3, s4, s5 = 3 * c3, 4 * c4, 5 * c5
    while j < last and grid[j] <= t1:
        th = (grid[j] - t) / h
        out.append((x0 + th * (a + th * (c2 + th * (c3 + th * (c4 + th * c5)))),
                    (a + th * (p + th * (s3 + th * (s4 + th * s5)))) / h))
        j += 1
    return j


def integrate(
    sys: FirstOrderSystem,
    ic: Sequence[float],
    t0: float,
    grid: Sequence[float],
    tol: float,
    dense: bool = False,
) -> Trajectory:
    """Integrate from (t0, ic) and report the state at every grid time.

    By default every grid state is a step's own.  With ``dense``, steps are
    clipped only to the last grid time, which gets the last step's state;
    ``_hermite_fill`` fills the others at no extra right-hand-side call.

    Time is kept local: steps advance tau from 0.0 towards g - t0 for each
    grid time g, and the right-hand side is evaluated at t0 + tau, so a
    large t0 does not round the steps to its float spacing.  A grid time
    less than STEP_UNDERFLOW_FACTOR times the window ahead counts as reached.

    Local error per step is controlled against the mixed scale
    atol + rtol*|y| with atol = rtol = tol.  Raises BlowUp when the step
    size underflows below STEP_UNDERFLOW_FACTOR times the window length,
    NonFinite when the right-hand side stops being finite, and
    StepBudgetExceeded after STEP_BUDGET attempted steps beyond one per grid
    interval.  An error estimate too large for a float rejects the step.
    ``Trajectory.steps`` counts attempted steps, ``rejected`` the rejected,
    ``rhs_calls`` the rhs evaluations; its times and rows are tuples.
    """
    grid = tuple(grid)
    if not grid or grid[0] != t0:
        raise ValueError("grid must start at t0")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("grid must be strictly increasing")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")

    c0, c1, c2, c3, c4, c5, c6 = _C
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65)) = _A
    e0, e1, e2, e3, e4, e5, e6 = _B4
    rhs, isfinite, sqrt = sys.rhs, math.isfinite, math.sqrt

    taus = [g - t0 for g in grid]  # the grid in local time
    span = max(taus[-1], 1e-300)
    h_min = STEP_UNDERFLOW_FACTOR * span
    budget = STEP_BUDGET + len(grid) - 1
    atol = rtol = tol

    t = 0.0
    x, v = float(ic[0]), float(ic[1])
    out_states = [(x, v)]
    # The stage sums below are written out term by term in tableau order:
    # the order of the seven-stage loop this integrator replaced, which
    # summed from an integer 0.  Leaving out that 0 can only turn a +0.0
    # sum into -0.0, and y + h*sum absorbs the sign unless y is -0.0.  A
    # state computed as y + h*sum never is; adding 0.0 to the initial state
    # keeps every state, stage and error bit for bit equal to that loop's.
    x += 0.0
    v += 0.0
    h = span / 100.0
    err_prev = 1.0
    steps = rejected = 0
    # each stage time is stored in ts before its call, so an OverflowError
    # (float ** raises where * would give inf) is reported at that stage
    ts = t0 + (t + c0 * h)
    try:
        k0v = rhs(ts, x, v)
    except OverflowError:
        raise NonFinite(ts) from None
    if not (isfinite(v) and isfinite(k0v)):
        raise NonFinite(ts)
    # dense output steps to taus[last], filling taus[j:last] on the way
    last = len(grid) - 1
    j = 1 if dense else last

    for t_target in (taus[1:][-1:] if dense else taus[1:]):
        # a grid time less than h_min ahead counts as reached: a step that
        # short would read as a blow-up.  min and max below are comparisons
        # that pick as the builtins do
        while (rest := t_target - t) >= h_min:
            if rest < h:
                h = rest
            if h < h_min:
                raise BlowUp(t0 + t)
            if steps == budget:
                raise StepBudgetExceeded(t0 + t, budget)
            # stages 1..6, each at its velocity kx; stage 0 (velocity v, by
            # FSAL) is the accepted step's last stage, or the rejected attempt's
            try:
                ts = t0 + (t + c1 * h)
                k1x = v + h * (a10 * k0v)
                k1v = rhs(ts, x + h * (a10 * v), k1x)
                if not (isfinite(k1x) and isfinite(k1v)):
                    raise NonFinite(ts)
                ts = t0 + (t + c2 * h)
                k2x = v + h * (a20 * k0v + a21 * k1v)
                k2v = rhs(ts, x + h * (a20 * v + a21 * k1x), k2x)
                if not (isfinite(k2x) and isfinite(k2v)):
                    raise NonFinite(ts)
                ts = t0 + (t + c3 * h)
                k3x = v + h * (a30 * k0v + a31 * k1v + a32 * k2v)
                k3v = rhs(ts, x + h * (a30 * v + a31 * k1x + a32 * k2x), k3x)
                if not (isfinite(k3x) and isfinite(k3v)):
                    raise NonFinite(ts)
                ts = t0 + (t + c4 * h)
                k4x = v + h * (a40 * k0v + a41 * k1v + a42 * k2v + a43 * k3v)
                k4v = rhs(ts, x + h * (a40 * v + a41 * k1x + a42 * k2x
                                       + a43 * k3x), k4x)
                if not (isfinite(k4x) and isfinite(k4v)):
                    raise NonFinite(ts)
                ts = t0 + (t + c5 * h)
                k5x = v + h * (a50 * k0v + a51 * k1v + a52 * k2v + a53 * k3v
                               + a54 * k4v)
                k5v = rhs(ts, x + h * (a50 * v + a51 * k1x + a52 * k2x
                                       + a53 * k3x + a54 * k4x), k5x)
                if not (isfinite(k5x) and isfinite(k5v)):
                    raise NonFinite(ts)
                y5x = x + h * (a60 * v + a61 * k1x + a62 * k2x + a63 * k3x
                               + a64 * k4x + a65 * k5x)
                y5v = v + h * (a60 * k0v + a61 * k1v + a62 * k2v + a63 * k3v
                               + a64 * k4v + a65 * k5v)
                ts = t0 + (t + c6 * h)
                k6v = rhs(ts, y5x, y5v)  # stage 6's velocity is y5v
                if not (isfinite(y5v) and isfinite(k6v)):
                    raise NonFinite(ts)
            except OverflowError:
                raise NonFinite(ts) from None
            y4x = x + h * (e0 * v + e1 * k1x + e2 * k2x + e3 * k3x
                           + e4 * k4x + e5 * k5x + e6 * y5v)
            y4v = v + h * (e0 * k0v + e1 * k1v + e2 * k2v + e3 * k3v
                           + e4 * k4v + e5 * k5v + e6 * k6v)
            if not isfinite(y5x):
                raise NonFinite(t0 + t)
            sx, sv, s5x, s5v = abs(x), abs(v), abs(y5x), abs(y5v)
            if s5x > sx:
                sx = s5x
            if s5v > sv:
                sv = s5v
            try:
                err = sqrt(0.5 * (((y5x - y4x) / (atol + rtol * sx)) ** 2
                                  + ((y5v - y4v) / (atol + rtol * sv)) ** 2))
            except OverflowError:  # too large to square: reject the step
                err = math.inf
            steps += 1
            if err <= 1.0:
                if j < last:
                    j = _hermite_fill(out_states, taus, j, last, t, h,
                                      x, v, k0v, y5x, y5v, k6v)
                t = t + h
                x, v = y5x, y5v
                k0v = k6v
                # PI controller (Hairer-style exponents for a 5th order pair)
                factor = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
                err_prev = 1e-10 if 1e-10 > err else err
            else:
                rejected += 1
                factor = 0.9 * (err + 1e-300) ** -0.2
            if 0.2 > factor:
                factor = 0.2
            h = h * (5.0 if 5.0 < factor else factor)
        out_states.append((x, v))

    # FSAL: six calls an attempted step, and the first stage
    return Trajectory(grid, tuple(out_states), tol=tol, steps=steps,
                      rejected=rejected, rhs_calls=6 * steps + 1, _checked=True)


def residual(sys: FirstOrderSystem, traj: Trajectory) -> float:
    """Independent oracle: max |xddot_fd - F(t, x, xdot_fd)| on the grid interior.

    Uses 5-point central finite differences for both derivatives, so it never
    touches the integrator or the trajectory's v row.  Requires a uniform
    grid of at least 7 points.
    """
    n = len(traj)
    if n < 7:
        raise GridTooCoarse(f"need at least 7 grid points, got {n}")
    times, xs = traj.times, traj.x
    h = times[1] - times[0]
    bound = 1e-9 * max(abs(h), 1.0)
    for a, b in zip(times, times[1:]):
        if abs((b - a) - h) > bound:
            raise GridTooCoarse("residual oracle requires a uniform grid")
    rhs, h12, hh12 = sys.rhs, 12 * h, 12 * h * h
    if not 2.0 ** -1022 <= hh12 < math.inf:  # the smallest normal float
        raise GridTooCoarse(f"12*h*h = {hh12:.3e} is not a positive normal float")
    worst = 0.0
    # (a, b, c, d, e) is the stencil x[i-2 .. i+2] around t = times[i]
    for t, a, b, c, d, e in zip(times[2:], xs, xs[1:], xs[2:], xs[3:], xs[4:]):
        xdot = (a - 8 * b + 8 * d - e) / h12
        r = abs((-a + 16 * b - 30 * c + 16 * d - e) / hh12 - rhs(t, c, xdot))
        if r > worst:
            worst = r
    return worst
