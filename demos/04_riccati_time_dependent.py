#!/usr/bin/env python3
"""Demo 4: time-dependent superposition for second-order Riccati equations.

The family  xddot + (b0 + b1 x) xdot + a0 + a1 x + a2 x^2 + a3 x^3 = 0  with
the derived damping  b0 = a2/sqrt(a3) - a3'/(2 a3),  b1 = 3 sqrt(a3)  is not
a Lie system as it stands.  The time-dependent change of variables
v' = v / sqrt(a3(t)) (positions untouched) maps it into the family of demo 3,
so the same four-solutions-plus-two-constants rule applies — it just has to
be conjugated by the transformation, making the rule *time-dependent*.

Shown here: the derived damping coefficients, the transformed right-hand
side as an exact identity (proved on the integrator's own formula trees,
with polynomial residuals that must be zero), a full reconstruction
round-trip, and the degeneration a3 = 1, where the pipeline returns
bit-for-bit the time-independent answer.
"""

import random

from liesuper import (
    RiccatiCoeffs,
    SuperposeProblem,
    integrate,
    lift_sode,
    reconstruct,
    superpose_riccati,
    transformed_rhs_check,
)
from liesuper.superpose import genericity_product


def linspace(start, stop, n):
    """n evenly spaced times from start to stop, both included."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def generic_ics(rng, n=5):
    while True:
        ics = [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n)]
        if abs(genericity_product(ics[:4])) > 1e-4:
            return ics


def main():
    rng = random.Random(8)
    sys = lift_sode("riccati", {"a0": "0.1*cos(t)", "a1": "0.2", "a2": "0.1*sin(t)",
                                "a3": "(1 + 0.1*sin(t))^2"}, interval=(0.0, 0.8))
    b0, b1 = sys.coeffs["b0"], sys.coeffs["b1"]
    print("derived damping at t = 0: "
          f"b0 = {b0.eval(0.0):.6g}, b1 = {b1.eval(0.0):.6g}")

    report = transformed_rhs_check()
    print(report.to_text())

    c = RiccatiCoeffs(sys.coeffs["a3"])
    grid = linspace(0.0, 0.8, 81)
    ics = generic_ics(rng)
    trajs = [integrate(sys, ic, 0.0, grid, 1e-10) for ic in ics]
    result = superpose_riccati(c, trajs[:4], target=trajs[4].states[0])
    err = max(abs(a - b) for rec, ref in zip(result.trajectory.states, trajs[4].states)
              for a, b in zip(rec, ref))
    print(f"\nreconstruction error over the window: {err:.3e}")

    print("\n== degeneration a3 = 1 ==")
    sys1 = lift_sode("riccati", {"a0": "0", "a1": "0", "a2": "0", "a3": "1"})
    c1 = RiccatiCoeffs(sys1.coeffs["a3"])
    g1 = linspace(0.0, 1.0, 61)
    ics1 = generic_ics(rng)
    trajs1 = [integrate(sys1, ic, 0.0, g1, 1e-10) for ic in ics1]
    via = superpose_riccati(c1, trajs1[:4], target=trajs1[4].states[0])
    direct = reconstruct(SuperposeProblem(trajs1[:4], target=trajs1[4].states[0]))
    print("bit-for-bit identical to the time-independent path:",
          via.trajectory.states == direct.trajectory.states)


if __name__ == "__main__":
    main()
