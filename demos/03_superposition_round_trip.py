#!/usr/bin/env python3
"""Demo 3: rebuilding the general solution from four particular solutions.

The superposition rule says: integrate *four* particular solutions of
xddot + 3x xdot + x^3 = 0 (or its time-dependent relatives), pick two
constants (lambda1, lambda2), and a closed formula produces a fifth solution
— no further integration.  Conversely, the constants matching any target
initial state are the values of two first integrals.

This demo integrates five solutions from random generic initial conditions,
fits the constants to the fifth solution's initial state from the other
four, reconstructs it on the whole window, and compares.  It also shows that
the fitted constants are genuinely *constant* along the flow (Lambda-drift).
"""

import random

from liesuper import (
    SuperposeProblem,
    genericity_product,
    integrate,
    lambda_integrals,
    lift_sode,
    reconstruct,
)


def linspace(start, stop, n):
    """n evenly spaced times from start to stop, both included."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def generic_ics(rng, n=5, threshold=1e-4):
    while True:
        ics = [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n)]
        if abs(genericity_product(ics[:4])) > threshold:
            return ics


def main():
    rng = random.Random(4)
    sys = lift_sode("general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"})
    grid = linspace(0.0, 1.0, 101)

    ics = generic_ics(rng)
    print("integrating five solutions from generic initial conditions ...")
    trajs = [integrate(sys, ic, 0.0, grid, 1e-10) for ic in ics]
    target = trajs[4]

    result = reconstruct(SuperposeProblem(trajs[:4], target=target.states[0]))
    print(f"fitted constants: lambda1 = {result.lam1:.12g}, "
          f"lambda2 = {result.lam2:.12g}")

    err = max(abs(a - b) for rec, ref in zip(result.trajectory.states, target.states)
              for a, b in zip(rec, ref))
    print(f"max reconstruction error (x and v): {err:.3e}")
    print(f"smallest denominator met on the grid: {result.min_denominator:.3e}")

    drifts = []
    for i in range(0, len(grid), 10):
        s = [tr.states[i] for tr in trajs[:4]]
        drifts.append(lambda_integrals([target.states[i], *s]))
    drift = max(abs(lam - lam0) for lams in drifts
                for lam, lam0 in zip(lams, drifts[0]))
    print(f"Lambda-drift along the flow: {drift:.3e} "
          "(the 'constants' really are first integrals)")


if __name__ == "__main__":
    main()
