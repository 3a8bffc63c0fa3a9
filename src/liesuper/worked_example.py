"""The classical f = 0 worked example: explicit solutions and reference values.

For  xddot + 3 x xdot + x^3 = 0  four particular solutions are known in
closed form, together with a tabulated general solution in two constants and
tabulated closed forms for the intermediate F/G functions.  This module keeps
those references as literal data and recomputes everything from the defining
formulas, so discrepancies between the two are surfaced (as WARN records)
instead of silently trusted either way.

Note the family is degenerate for the superposition machinery: F123 vanishes
identically on it (slot 1 is the zero solution and slots 2, 3 conspire), so
the genericity product is identically zero and the four-solution formula
loses its dependence on the first constant.  ``superpose_over_example``
therefore does not reproduce the two-parameter reference general solution;
the report records both sides.
"""

from __future__ import annotations

import math
from typing import Callable

from .algebra import Report
from .superpose import State, f_abc, g_abcd, genericity_product, superpose_value

__all__ = [
    "example_states",
    "reference_general_solution",
    "superpose_over_example",
    "TABULATED_INTERMEDIATES",
    "recomputed_intermediates",
    "worked_example_report",
]


def example_states(t: float) -> list[State]:
    """The four explicit particular solutions (x, v) at time t (t > 0)."""
    if t <= 0.0:
        raise ValueError("the explicit solutions have a pole at t = 0")
    return [
        (0.0, 0.0),
        (2.0 / t, -2.0 / t**2),
        (2.0 * t / (2.0 + t**2), (4.0 - 2.0 * t**2) / (2.0 + t**2) ** 2),
        ((1.0 + 2.0 * t) / (t + t**2), -(1.0 + 2.0 * t + 2.0 * t**2) / (t + t**2) ** 2),
    ]


def reference_general_solution(t: float, lam1: float, lam2: float) -> float:
    """The tabulated two-constant general solution of the f = 0 equation.

    x(t) = (1 + 2 t lam1)(lam2 - 1) / (t(lam2 - 1) + t^2 lam1 (lam2 - 1)
           + (lam1 - 1) lam2).  It satisfies the equation for every (lam1,
    lam2); the denominator zero set is the caller's problem.
    """
    den = t * (-1.0 + lam2) + t**2 * lam1 * (-1.0 + lam2) + (-1.0 + lam1) * lam2
    if den == 0.0:
        raise ZeroDivisionError(f"reference general solution singular at t={t}")
    return (1.0 + 2.0 * t * lam1) * (-1.0 + lam2) / den


def superpose_over_example(t: float, lam1: float, lam2: float) -> float:
    """Direct evaluation of the superposition formula over the four solutions."""
    return superpose_value(example_states(t), lam1, lam2, t=t)


# tabulated closed forms for the intermediate functions at general t
TABULATED_INTERMEDIATES: dict[str, Callable[[float], float]] = {
    "G3124": lambda t: 2.0 / (t**2 * (t**2 + 1.0) * (t + 1.0)),
    "F431": lambda t: 2.0 / (t * (t**2 + 1.0) * (t + 1.0)),
    "G2134": lambda t: -4.0 / (t * (t**2 + 1.0) * (t + 1.0)),
    "F124": lambda t: 2.0 / (t**2 + t**3),
    "F324": lambda t: 2.0 / (t**2 + t**3 + t**4 + t**5),
    "F312": lambda t: 2.0 / (2.0 * t + t**3),
}


def recomputed_intermediates(t: float) -> dict[str, float]:
    """The same functions evaluated directly from the defining formulas."""
    s1, s2, s3, s4 = example_states(t)
    return {
        "G3124": g_abcd(s3, s1, s2, s4),
        "F431": f_abc(s4, s3, s1),
        "G2134": g_abcd(s2, s1, s3, s4),
        "F124": f_abc(s1, s2, s4),
        "F324": f_abc(s3, s2, s4),
        "F312": f_abc(s3, s1, s2),
    }


def worked_example_report() -> Report:
    """Recomputed vs tabulated intermediate values at t = 1, plus the degeneracy.

    Mismatches are WARN, not FAIL: the defining formulas are normative and
    the tabulated transcriptions are known to disagree with them (direct
    evaluation gives F431(1) = 1/3 where the table gives 1/2).
    """
    t = 1.0
    report = Report(f"worked example (f = 0): tabulated vs recomputed values at t={t}")
    direct = recomputed_intermediates(t)
    for name, ref in TABULATED_INTERMEDIATES.items():
        expected = ref(t)
        computed = direct[name]
        report.add(
            name,
            f"{expected:.12g} (tabulated)",
            f"{computed:.12g} (direct)",
            math.isclose(expected, computed, rel_tol=1e-12, abs_tol=1e-15),
            warn_only=True,
        )
    gp = genericity_product(example_states(t))
    report.add(
        "genericity product F123*F124*F134*F234",
        "nonzero for a generic family",
        f"{gp:.3e} (F123 vanishes identically on this family)",
        abs(gp) > 1e-12,
        warn_only=True,
    )
    return report
