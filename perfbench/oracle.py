"""Independent correctness checks for the benchmark's results.

* every trajectory against a scipy ``solve_ivp`` DOP853 reference at
  rtol = atol = 1e-13, integrated from the benchmark's own right-hand side
  (scipy is a benchmark-only dependency, imported after the timed loop so it
  counts toward neither timings nor peak RSS);
* the acceptance limits: reconstruction error <= 1e-6, Lambda1/Lambda2 drift
  <= 1e-8, finite-difference residual <= 1e-6.

Each check returns a list of problems; an empty list means it passed.  The
worst figures seen are kept in ``Oracle.worst`` for the run report.
"""

from __future__ import annotations

from inputs import Equation, lambdas

ERROR_LIMIT = 1e-6
DRIFT_LIMIT = 1e-8
RESIDUAL_LIMIT = 1e-6
REF_TOL = 1e-13


class Oracle:
    def __init__(self):
        self._solve_ivp = None
        self._refs: dict = {}
        self.references = 0
        self.worst = {"error": 0.0, "drift": 0.0, "residual": 0.0}

    def _note(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst[key], value)

    def reference(self, eq: Equation, state, times) -> tuple[list, str | None]:
        """DOP853 states on ``times`` from ``state`` at times[0]."""
        key = (id(eq), tuple(state), times[0], times[-1], len(times))
        if key not in self._refs:
            if self._solve_ivp is None:
                from scipy.integrate import solve_ivp  # benchmark-only

                self._solve_ivp = solve_ivp
            sol = self._solve_ivp(
                lambda t, y: (y[1], eq.accel(t, y[0], y[1])),
                (times[0], times[-1]), list(state), method="DOP853",
                rtol=REF_TOL, atol=REF_TOL, t_eval=list(times),
            )
            self.references += 1
            if not sol.success or sol.y.shape[1] != len(times):
                self._refs[key] = (None, f"reference solution does not exist "
                                         f"on the window: {sol.message}")
            else:
                self._refs[key] = (list(zip(sol.y[0].tolist(),
                                            sol.y[1].tolist())), None)
        return self._refs[key]

    def against_reference(self, eq, state, times, states) -> list[str]:
        if len(states) != len(times):
            return [f"{len(states)} states for {len(times)} grid points"]
        ref, problem = self.reference(eq, state, times)
        if problem:
            return [problem]
        err = max(max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                  for a, b in zip(states, ref))
        self._note("error", err)
        if not err <= ERROR_LIMIT:
            return [f"max error vs DOP853 reference {err:.3e} > {ERROR_LIMIT}"]
        return []

    def residual(self, eq: Equation, times, states) -> list[str]:
        """5-point finite-difference residual of the x row on a uniform grid.

        Meant for integrated trajectories on fine grids (about 1e-9 there).
        A reconstruction carries ~1e-12 of rounding noise from point to
        point, which the stencil's 1/h^2 turns into ~1e-6 at h = 0.001, while
        at h = 0.01 its h^4 truncation error reaches 1e-6 on the livelier
        Riccati targets.  Reconstructions are held to the DOP853 reference
        instead, which bounds them pointwise.
        """
        if len(states) != len(times):
            return [f"{len(states)} states for {len(times)} grid points"]
        xs = [s[0] for s in states]
        h = times[1] - times[0]
        worst = 0.0
        for i in range(2, len(xs) - 2):
            xdot = (xs[i - 2] - 8 * xs[i - 1] + 8 * xs[i + 1] - xs[i + 2]) / (12 * h)
            xddot = (-xs[i - 2] + 16 * xs[i - 1] - 30 * xs[i]
                     + 16 * xs[i + 1] - xs[i + 2]) / (12 * h * h)
            worst = max(worst, abs(xddot - eq.accel(times[i], xs[i], xdot)))
        self._note("residual", worst)
        if not worst <= RESIDUAL_LIMIT:
            return [f"finite-difference residual {worst:.3e} > {RESIDUAL_LIMIT}"]
        return []

    def drift(self, eq: Equation, times, target_states, particular_states,
              constants) -> list[str]:
        """Lambda1/Lambda2 along (target, particulars) in scheme coordinates."""
        if any(len(s) != len(times) for s in [target_states, *particular_states]):
            return ["a trajectory does not cover the grid"]
        lam1, lam2 = constants
        gaps = []
        for i in range(0, len(times), 10):
            b = eq.beta(times[i])
            s0, *parts = [(x, v / b) for x, v in
                          [target_states[i]] + [p[i] for p in particular_states]]
            l1, l2 = lambdas(s0, parts)
            gaps.append(max(abs(l1 - lam1), abs(l2 - lam2)))
        bad = [g for g in gaps if not g <= DRIFT_LIMIT]
        self._note("drift", max(gaps))
        if bad:
            return [f"Lambda drift {bad[0]:.3e} > {DRIFT_LIMIT}"]
        return []
