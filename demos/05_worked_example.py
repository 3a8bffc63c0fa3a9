#!/usr/bin/env python3
"""Demo 5: the classical f = 0 example, and why verifying beats trusting.

Four closed-form solutions of xddot + 3x xdot + x^3 = 0 are classically
listed together with tabulated intermediate values and a two-constant
general solution.  Recomputing everything from the defining formulas turns
up two findings this package reports instead of papering over:

* the tabulated intermediate values disagree with direct evaluation
  (e.g. F431(1): table 1/2, direct 1/3) — reported as WARN;
* the four listed solutions are *degenerate* for the superposition formula:
  every solution here is x = udot/u with u quadratic in t, a slot triple
  degenerates exactly when its u's are linearly dependent, and the u's of
  slots 1, 2, 3 (1, t^2, 2 + t^2) are dependent.  Hence F123 = 0 and the
  formula evaluated over these four solutions loses its dependence on the
  first constant — it cannot reproduce the two-parameter general solution.

Choosing u's in general position (demo below) restores full genericity, and
the rule then reconstructs the solution 1/t to integrator accuracy.
"""

from liesuper import SuperposeProblem, integrate, lift_sode, reconstruct
from liesuper.superpose import genericity_product, superpose_value
from liesuper.worked_example import (
    example_states,
    reference_general_solution,
    worked_example_report,
)


def linspace(start, stop, n):
    """n evenly spaced times from start to stop, both included."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def main():
    print(worked_example_report().to_text())

    print("\n== degeneracy in action ==")
    t = 1.3
    for lam1 in (-0.5, 0.0, 0.8):
        val = superpose_value(example_states(t), lam1, 0.4, t=t)
        print(f"  formula over the classical family, lambda1 = {lam1:5.2f}: "
              f"{val:.12g}  (independent of lambda1)")
    print(f"  two-parameter reference solution needs lambda1: "
          f"{reference_general_solution(t, -0.5, 0.4):.6g} vs "
          f"{reference_general_solution(t, 0.8, 0.4):.6g}")

    print("\n== a generic family fixes it ==")
    # u = 1, t^2, (1+t)^2, 1+t+2t^2 are quadratics in general position
    t0 = 0.2
    ics = [
        (0.0, 0.0),
        (2 / t0, -2 / t0**2),
        (2 / (1 + t0), -2 / (1 + t0) ** 2),
        ((1 + 4 * t0) / (1 + t0 + 2 * t0**2),
         (3 - 4 * t0 - 8 * t0**2) / (1 + t0 + 2 * t0**2) ** 2),
    ]
    print(f"  genericity product: {genericity_product(ics):.3e}")
    sys = lift_sode("mdpi")
    grid = linspace(0.2, 1.2, 101)
    trajs = [integrate(sys, ic, t0, grid, 1e-10) for ic in ics]
    result = reconstruct(
        SuperposeProblem(trajs, target=(1 / t0, -1 / t0**2))
    )
    err = max(abs(x - 1.0 / t)
              for t, x in zip(result.trajectory.times, result.trajectory.x))
    print(f"  reconstructing 1/t from its initial state: max error {err:.3e}")


if __name__ == "__main__":
    main()
