#!/usr/bin/env python3
"""Demo 2: adaptive integration of the cubic-nonlinearity equations.

The equation xddot + 3x xdot + x^3 = 0 has the closed-form solution
x = 1/(1+t) from (x, v)(0) = (1, -1), which makes a clean accuracy
benchmark.  The same equation also blows up in finite time for suitably
negative initial data, and the integrator is required to *say so* (with an
estimate of t*) instead of silently grinding to a halt.

An independent finite-difference residual oracle re-checks the trajectory
against the equation without ever looking at the integrator's internals.
"""

from liesuper import BlowUp, integrate, lift_sode, residual


def linspace(start, stop, n):
    """n evenly spaced times from start to stop, both included."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def main():
    sys = lift_sode("mdpi")  # f = 0
    grid = linspace(0.0, 1.0, 201)

    print("== accuracy against the closed form 1/(1+t) ==")
    for tol in (1e-6, 1e-9, 1e-12):
        traj = integrate(sys, (1.0, -1.0), 0.0, grid, tol)
        err = max(abs(x - 1.0 / (1.0 + t)) for t, x in zip(grid, traj.x))
        print(f"  tol {tol:8.0e}: max error {err:.3e} in {traj.steps} steps")

    traj = integrate(sys, (1.0, -1.0), 0.0, grid, 1e-10)
    print(f"\n== independent residual oracle ==")
    print(f"  max |xddot_fd - F(t, x, xdot_fd)| = {residual(sys, traj):.3e}")

    print("\n== finite-time blow-up is reported, not hidden ==")
    try:
        integrate(sys, (-5.0, -40.0), 0.0, grid, 1e-10)
    except BlowUp as exc:
        print(f"  BlowUp raised with t* = {exc.t_star:.6f}")

    print("\n== time-dependent coefficients parse from text ==")
    gen = lift_sode("general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"})
    traj = integrate(gen, (0.3, -0.2), 0.0, grid, 1e-10)
    print(f"  general family, residual {residual(gen, traj):.3e}")


if __name__ == "__main__":
    main()
