"""First-order lifts of the supported SODE families and their numerical integration.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control.  Dense output is obtained by clipping steps so that every requested
grid time is hit exactly (no interpolation), which keeps the correctness
story simple; grids here are small.  The cubic nonlinearity of the supported
equations admits finite-time blow-up, so step-size underflow is reported as
``BlowUp`` rather than ground through.

An independent finite-difference residual oracle is provided to check that a
trajectory (however it was produced) actually satisfies its equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .coeffexpr import CoeffExpr, Const, Sqrt, parse_expr

__all__ = [
    "ConstraintViolation",
    "BlowUp",
    "NonFinite",
    "GridTooCoarse",
    "FirstOrderSystem",
    "Trajectory",
    "lift_sode",
    "riccati_damping",
    "integrate",
    "residual",
]

FAMILIES = ("mdpi", "exam2", "general", "riccati")

# how far below the window length the step size may shrink before we call it
# a blow-up; no lifespan policy is prescribed for these equations, so this
# threshold is our own convention
STEP_UNDERFLOW_FACTOR = 1e-14


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


class GridTooCoarse(ValueError):
    """The residual stencil needs at least 7 uniform grid points."""


@dataclass(frozen=True)
class FirstOrderSystem:
    """2-dimensional first-order system xdot = v, vdot = F(t, x, v)."""

    family: str
    rhs: Callable[[float, float, float], tuple[float, float]]
    coeffs: dict[str, CoeffExpr] = field(default_factory=dict)
    dim: int = 2

    def acceleration(self, t: float, x: float, v: float) -> float:
        return self.rhs(t, x, v)[1]


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


def _check_riccati_constraints(a3: CoeffExpr, interval, samples: int = 64):
    if abs(a3.eval(0.0) - 1.0) > 1e-12:
        raise ConstraintViolation("a3(0) = 1", 0.0)
    t0, t1 = interval
    for i in range(samples + 1):
        t = t0 + (t1 - t0) * i / samples
        if a3.eval(t) <= 0.0:
            raise ConstraintViolation("a3(t) > 0", t)


def lift_sode(family: str, coeffs: dict | None = None,
              interval: tuple[float, float] = (0.0, 1.0)) -> FirstOrderSystem:
    """Build the first-order lift of one of the supported SODE families.

    family / coefficients:
      * ``mdpi``:    f            ->  vdot = -3xv - x^3 + f(t)
      * ``exam2``:   lam1         ->  vdot = -3xv - x^3 - lam1*x
      * ``general``: f, g, h      ->  vdot = -3xv - x^3 - f(t)(v+x^2) - g(t)x - h(t)
      * ``riccati``: a0, a1, a2, a3 -> vdot = -(b0+b1*x)v - a0 - a1*x - a2*x^2 - a3*x^3
        with the derived b0, b1 (see ``riccati_damping``); requires a3(0)=1
        and a3 > 0 sampled over ``interval``.

    Coefficient values may be CoeffExpr trees, expression strings, or numbers.
    """
    coeffs = {k: _as_expr(v) for k, v in (coeffs or {}).items()}

    def get(name, default=0):
        return coeffs.get(name, Const(default))

    if family == "mdpi":
        f = get("f")

        def rhs(t, x, v):
            return (v, -3.0 * x * v - x**3 + f.eval(t))

        return FirstOrderSystem("mdpi", rhs, {"f": f})

    if family == "exam2":
        lam1 = get("lam1")

        def rhs(t, x, v):
            return (v, -3.0 * x * v - x**3 - lam1.eval(t) * x)

        return FirstOrderSystem("exam2", rhs, {"lam1": lam1})

    if family == "general":
        f, g, h = get("f"), get("g"), get("h")

        def rhs(t, x, v):
            return (
                v,
                -3.0 * x * v - x**3 - f.eval(t) * (v + x**2) - g.eval(t) * x - h.eval(t),
            )

        return FirstOrderSystem("general", rhs, {"f": f, "g": g, "h": h})

    if family == "riccati":
        a0, a1, a2, a3 = get("a0"), get("a1"), get("a2"), get("a3", 1)
        _check_riccati_constraints(a3, interval)
        b0, b1 = riccati_damping(a2, a3)

        def rhs(t, x, v):
            return (
                v,
                -(b0.eval(t) + b1.eval(t) * x) * v
                - a0.eval(t) - a1.eval(t) * x - a2.eval(t) * x**2 - a3.eval(t) * x**3,
            )

        return FirstOrderSystem(
            "riccati", rhs, {"a0": a0, "a1": a1, "a2": a2, "a3": a3, "b0": b0, "b1": b1}
        )

    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


@dataclass
class Trajectory:
    """A solution sampled on a strictly increasing time grid."""

    times: list[float]
    states: list[tuple[float, float]]
    tol: float = float("nan")
    steps: int = 0
    status: str = "ok"

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def x(self) -> list[float]:
        return [s[0] for s in self.states]

    @property
    def v(self) -> list[float]:
        return [s[1] for s in self.states]

    def to_csv(self, path) -> None:
        """Write as CSV with header t,x,v at full double precision."""
        with open(path, "w") as fh:
            fh.write("t,x,v\n")
            for t, (x, v) in zip(self.times, self.states):
                fh.write(f"{t:.17g},{x:.17g},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        times, states = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "t,x,v":
                raise ValueError(f"unexpected CSV header {header!r} in {path}")
            for line in fh:
                if not line.strip():
                    continue
                t, x, v = (float(part) for part in line.split(","))
                times.append(t)
                states.append((x, v))
        return cls(times, states)


# Dormand-Prince 5(4) tableau
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


def _rhs_checked(sys: FirstOrderSystem, t: float, y: tuple[float, float]):
    try:
        d = sys.rhs(t, y[0], y[1])
    except OverflowError:  # float ** raises where * would give inf
        raise NonFinite(t) from None
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise NonFinite(t)
    return d


def integrate(
    sys: FirstOrderSystem,
    ic: Sequence[float],
    t0: float,
    grid: Sequence[float],
    tol: float,
) -> Trajectory:
    """Integrate from (t0, ic) landing exactly on every grid time.

    Local error per step is controlled against the mixed scale
    atol + rtol*|y| with atol = rtol = tol.  Raises BlowUp when the step
    size underflows below STEP_UNDERFLOW_FACTOR times the window length,
    and NonFinite when the right-hand side stops being finite.
    """
    grid = list(grid)
    if not grid or grid[0] != t0:
        raise ValueError("grid must start at t0")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("grid must be strictly increasing")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

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
            # seven stages (FSAL not exploited)
            k = []
            for s in range(7):
                ts = t + _C[s] * h
                ys = (
                    y[0] + h * sum(_A[s][j] * k[j][0] for j in range(s)),
                    y[1] + h * sum(_A[s][j] * k[j][1] for j in range(s)),
                )
                k.append(_rhs_checked(sys, ts, ys))
            y5 = tuple(
                y[i] + h * sum(_B5[s] * k[s][i] for s in range(7)) for i in range(2)
            )
            y4 = tuple(
                y[i] + h * sum(_B4[s] * k[s][i] for s in range(7)) for i in range(2)
            )
            if not all(math.isfinite(c) for c in y5):
                raise NonFinite(t)
            err = math.sqrt(
                0.5
                * sum(
                    ((y5[i] - y4[i]) / (atol + rtol * max(abs(y[i]), abs(y5[i])))) ** 2
                    for i in range(2)
                )
            )
            steps += 1
            if err <= 1.0:
                t = t + h
                y = y5
                # PI controller (Hairer-style exponents for a 5th order pair)
                factor = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
                err_prev = max(err, 1e-10)
            else:
                factor = max(0.9 * (err + 1e-300) ** -0.2, 0.2)
            h = h * min(max(factor, 0.2), 5.0)
        out_states.append(y)

    return Trajectory(list(grid), out_states, tol=tol, steps=steps)


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
    for a, b in zip(times, times[1:]):
        if abs((b - a) - h) > 1e-9 * max(abs(h), 1.0):
            raise GridTooCoarse("residual oracle requires a uniform grid")
    worst = 0.0
    for i in range(2, n - 2):
        xdot = (xs[i - 2] - 8 * xs[i - 1] + 8 * xs[i + 1] - xs[i + 2]) / (12 * h)
        xddot = (
            -xs[i - 2] + 16 * xs[i - 1] - 30 * xs[i] + 16 * xs[i + 1] - xs[i + 2]
        ) / (12 * h * h)
        worst = max(worst, abs(xddot - sys.acceleration(times[i], xs[i], xdot)))
    return worst
