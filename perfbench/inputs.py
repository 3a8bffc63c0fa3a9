"""Seeded inputs for the three workloads, with the oracle's own equations.

Everything here is the benchmark's side: the program only ever receives the
coefficient strings, grids and states built below.  Each equation carries a
hand-written Python right-hand side (including the Riccati damping b0 with
a hand-derived a3') so that the scipy oracle never evaluates the program's
coefficient trees.

The *shape* of every input is fixed per workload slot (family, expression
template, grid size, horizon); the seed only moves numeric constants inside
the templates and the initial states.  That keeps the amount of work per run
independent of the seed, so runs with different seeds are comparable.

Stiff inputs are deliberately absent: with ``f = "exp(1000*t)"`` the
integrator has no step budget today and does not return.  That is a
robustness defect of the program, not a benchmark input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

GENERIC_THRESHOLD = 1e-4  # |F123 F124 F134 F234| floor, as in tests/conftest.py
TARGET_F_FLOOR = 1e-2  # |F(a,b,0)| floor for every pair of particular slots


def f_abc(sa, sb, sc) -> float:
    """F(a,b,c) of three (x, v) states, written out independently."""
    (xa, va), (xb, vb), (xc, vc) = sa, sb, sc
    return (va * (xc - xb) + vb * (xa - xc) + vc * (xb - xa)
            + (xa - xb) * (xb - xc) * (xc - xa))


def genericity(states) -> float:
    s1, s2, s3, s4 = states
    return (f_abc(s1, s2, s3) * f_abc(s1, s2, s4)
            * f_abc(s1, s3, s4) * f_abc(s2, s3, s4))


def lambdas(s0, particulars) -> tuple[float, float]:
    """The two first integrals of (target, four particular states)."""
    s1, s2, s3, s4 = particulars
    F431, F421 = f_abc(s4, s3, s1), f_abc(s4, s2, s1)
    return (F431 * f_abc(s2, s1, s0) / (F421 * f_abc(s3, s1, s0)),
            F431 * f_abc(s4, s2, s0) / (F421 * f_abc(s4, s3, s0)))


@dataclass
class Equation:
    """One family member: program-side coefficients plus an oracle rhs."""

    family: str
    coefficients: dict[str, str]
    accel: Callable[[float, float, float], float]
    # velocity rescaling sqrt(a3(t)) of the Riccati family, 1 elsewhere
    beta: Callable[[float], float] = field(default=lambda t: 1.0)
    a3_is_one: bool = False


def _dec(rng: random.Random, lo: float, hi: float) -> str:
    """A two-digit decimal in [lo, hi], as text the program parses exactly."""
    return f"{rng.randint(round(lo * 100), round(hi * 100)) / 100:.2f}"


def mdpi(rng) -> Equation:
    a, b, c = _dec(rng, 0.1, 0.9), _dec(rng, 0.5, 2.0), _dec(rng, 0.1, 0.5)
    A, B, C = float(a), float(b), float(c)
    return Equation(
        "mdpi", {"f": f"{a}*sin({b}*t) - {c}"},
        lambda t, x, v: -3.0 * x * v - x**3 + (A * math.sin(B * t) - C),
    )


def general(rng) -> Equation:
    a, b, c, d = (_dec(rng, 0.1, 0.9) for _ in range(4))
    A, B, C, D = float(a), float(b), float(c), float(d)

    def accel(t, x, v):
        f, g, h = A * math.cos(t), B + C * t, D * math.exp(-t)
        return -3.0 * x * v - x**3 - f * (v + x * x) - g * x - h

    return Equation(
        "general", {"f": f"{a}*cos(t)", "g": f"{b} + {c}*t", "h": f"{d}*exp(-t)"},
        accel,
    )


def exam2(lam: str) -> Equation:
    L = float(Fraction(lam))
    return Equation("exam2", {"lam1": lam},
                    lambda t, x, v: -3.0 * x * v - x**3 - L * x)


def riccati(rng, a3_is_one: bool) -> Equation:
    """a0 + a1 x + a2 x^2 + a3 x^3 with b0 = a2/sqrt(a3) - a3'/(2 a3)."""
    a, b, c, d = (_dec(rng, 0.1, 0.5) for _ in range(4))
    A, B, C, D = float(a), float(b), float(c), float(d)
    if a3_is_one:
        a3_text = "1"
        a3, da3 = (lambda t: 1.0), (lambda t: 0.0)
    else:
        a3_text = f"1 + {d}*t^2"
        a3, da3 = (lambda t: 1.0 + D * t * t), (lambda t: 2.0 * D * t)

    def accel(t, x, v):
        a0, a1, a2, a3t = A * math.cos(t), B, C * math.sin(t), a3(t)
        s = math.sqrt(a3t)
        b0 = a2 / s - da3(t) / (2.0 * a3t)
        b1 = 3.0 * s
        return -(b0 + b1 * x) * v - a0 - a1 * x - a2 * x * x - a3t * x**3

    return Equation(
        "riccati",
        {"a0": f"{a}*cos(t)", "a1": b, "a2": f"{c}*sin(t)", "a3": a3_text},
        accel, beta=lambda t: math.sqrt(a3(t)), a3_is_one=a3_is_one,
    )


def small_state(rng) -> tuple[float, float]:
    return (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))


def generic_ics(rng) -> list[tuple[float, float]]:
    """Four states in [-0.5, 0.5]^2 passing the tests' genericity guard."""
    while True:
        ics = [small_state(rng) for _ in range(4)]
        if abs(genericity(ics)) > GENERIC_THRESHOLD:
            return ics


def generic_target(rng, particulars) -> tuple[float, float]:
    """A target state whose F-values with every particular pair are sizeable.

    Each F(a,b,c) is a relative invariant of the prolonged flow, so it keeps
    its sign along the solutions: a floor at t = 0 keeps every superposition
    denominator away from zero on the whole window.
    """
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    while True:
        s0 = small_state(rng)
        if min(abs(f_abc(particulars[a], particulars[b], s0))
               for a, b in pairs) > TARGET_F_FLOOR:
            return s0


TOL_BASE_IC = (0.3, -0.1)  # about 450 steps on [0, 10] at tol 1e-10
TOL_IC_JITTER = 0.02
TOL_IC_MARGIN = 0.3  # floor on min u, well clear of blow-up at min u = 0


def exam2_bounded_ic(rng, lam: float):
    """A jittered base IC whose exam2 solution exists for all t >= 0.

    x = u'/u linearises x'' + 3 x x' + x^3 + lam x = 0 to u''' + lam u' = 0,
    so u = A + B cos(wt) + C sin(wt) with u(0) = 1, and the solution lives
    forever iff min u = A - sqrt(B^2 + C^2) > 0.  The jitter is small
    because the step count follows the amplitude: a wide range would make
    the work of a run depend on its seed.
    """
    x0 = TOL_BASE_IC[0] + rng.uniform(-TOL_IC_JITTER, TOL_IC_JITTER)
    v0 = TOL_BASE_IC[1] + rng.uniform(-TOL_IC_JITTER, TOL_IC_JITTER)
    B = -(v0 + x0 * x0) / lam
    C = x0 / math.sqrt(lam)
    if not (1.0 - B) - math.hypot(B, C) > TOL_IC_MARGIN:
        raise ValueError(f"exam2 IC {(x0, v0)} comes too close to blow-up")
    return (x0, v0)


def grid(t0: float, t1: float, n: int) -> list[float]:
    """The grid the CLI builds for [t0, t1] with n points."""
    g = [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]
    g[-1] = t1
    return g


# ---------------------------------------------------------------------------
# per-workload input sets


RANK_GENERIC = 6  # rank points per pass with expected rank 8
RANK_DUPLICATED = 2  # rank points per pass with a duplicated copy


def rank_points(rng):
    """Rational points x1..x4,v1..v4 with their expected exact rank."""

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def generic_point():
        while True:
            xs = [rational() for _ in range(4)]
            vs = [rational() for _ in range(4)]
            states = [(float(x), float(v)) for x, v in zip(xs, vs)]
            if abs(genericity(states)) > 1e-3:
                return xs, vs

    points = []
    for _ in range(RANK_GENERIC):
        xs, vs = generic_point()
        points.append((xs + vs, 8))
    for _ in range(RANK_DUPLICATED):
        xs, vs = generic_point()
        i, j = rng.sample(range(4), 2)
        xs[j], vs[j] = xs[i], vs[i]
        points.append((xs + vs, 6))  # three distinct copies span at most 6
    return [(",".join(str(p) for p in pt), rank) for pt, rank in points]


@dataclass
class SolveCase:
    name: str
    regime: str  # "grid" (steps follow the grid) or "tol" (steps follow tol)
    equation: Equation
    initial: tuple[float, float]
    interval: tuple[float, float]
    points: int

    def config(self, output: str, report: str) -> dict:
        return {
            "family": self.equation.family,
            "coefficients": self.equation.coefficients,
            "initial": list(self.initial),
            "interval": list(self.interval),
            "points": self.points,
            "output": output,
            "report": report,
        }


def solve_cases(rng) -> list[SolveCase]:
    """Grid-bound configs on [0, 1] and tol-bound exam2 configs on [0, 10]."""
    cases = []
    fine = [
        ("mdpi", 1001, mdpi), ("mdpi", 2001, mdpi),
        ("general", 1001, general), ("general", 1501, general),
        ("exam2", 1501, lambda r: exam2(_dec(r, 0.5, 2.0))),
        ("riccati", 1001, lambda r: riccati(r, a3_is_one=False)),
        ("riccati", 2001, lambda r: riccati(r, a3_is_one=False)),
    ]
    for i, (fam, n, make) in enumerate(fine):
        cases.append(SolveCase(f"grid-{fam}-{n}-{i}", "grid", make(rng),
                               small_state(rng), (0.0, 1.0), n))
    for i, lam in enumerate(("1", "2", "1/2")):
        eq = exam2(lam)
        cases.append(SolveCase(f"tol-exam2-{lam}-{i}", "tol", eq,
                               exam2_bounded_ic(rng, float(Fraction(lam))),
                               (0.0, 10.0), 101))
    return cases


@dataclass
class Family:
    """One superposition family: four particulars and generic targets."""

    name: str
    equation: Equation
    particulars: list[tuple[float, float]]
    fixed_targets: list[tuple[float, float]]  # reconstructed from constants
    fitted_targets: list[tuple[float, float]]  # reconstructed by fitting

    def constants(self, target) -> tuple[float, float]:
        return lambdas(target, self.particulars)


FAMILY_INTERVAL = (0.0, 1.0)
FAMILY_POINTS = 1001
FIXED_TARGETS = 12  # per family, reconstructed from constants
FITTED_TARGETS = 4  # per family, reconstructed by fitting a target state


def families(rng) -> list[Family]:
    out = []
    for name, eq in (("general", general(rng)),
                     ("riccati-a3", riccati(rng, a3_is_one=False)),
                     ("riccati-a3=1", riccati(rng, a3_is_one=True))):
        ics = generic_ics(rng)
        targets = [generic_target(rng, ics)
                   for _ in range(FIXED_TARGETS + FITTED_TARGETS)]
        out.append(Family(name, eq, ics, targets[:FIXED_TARGETS],
                          targets[FIXED_TARGETS:]))
    return out


# the README example config, verbatim apart from its output paths
README_SUPERPOSE = {
    "family": "general",
    "coefficients": {"f": "sin(t)", "g": "cos(t)", "h": "0.1"},
    "interval": [0, 1],
    "points": 101,
    "initial_conditions": [[0.1, -0.2], [0.3, 0.1], [-0.2, 0.4], [0.25, -0.4]],
    "target": [0.05, 0.3],
}


def readme_equation() -> Equation:
    def accel(t, x, v):
        return (-3.0 * x * v - x**3 - math.sin(t) * (v + x * x)
                - math.cos(t) * x - 0.1)

    return Equation("general", dict(README_SUPERPOSE["coefficients"]), accel)
