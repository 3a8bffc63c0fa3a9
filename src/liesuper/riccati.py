"""Time-dependent superposition for the canonical second-order Riccati family.

The family is  xddot + (b0(t) + b1(t) x) xdot + a0 + a1 x + a2 x^2 + a3 x^3 = 0
with a3 > 0, a3(0) = 1 and the derived damping b0 = a2/sqrt(a3) - a3'/(2 a3),
b1 = 3 sqrt(a3).  The first-order lift is not a Lie system, but the
time-dependent rescaling v' = v/sqrt(a3(t)) (positions untouched) maps it
into the sl(3,R) family handled by :mod:`liesuper.superpose`.  The
superposition therefore runs in transformed coordinates and only the
velocities need to be mapped back at the end.

The beta row and the transformed basis are built once per trajectories and
:class:`RiccatiCoeffs` object, in the memo of :mod:`liesuper.superpose`.

With a3 identically 1 the rescaling is the floating-point identity, so this
whole pipeline degenerates bit-for-bit to the time-independent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import Report
from .coeffexpr import CoeffExpr, DomainError, Sqrt
from .odeint import FirstOrderSystem, Trajectory, _system, lift_sode
from .superpose import (
    EPS_GEN,
    ReconstructionResult,
    State,
    SuperposeProblem,
    _reconstruct,
)

__all__ = [
    "RiccatiCoeffs",
    "build_riccati",
    "transform_state",
    "untransform_state",
    "transformed_rhs_check",
    "superpose_riccati",
]


@dataclass(frozen=True)
class RiccatiCoeffs:
    """Validated coefficients of one family member, with derived b0, b1."""

    a0: CoeffExpr
    a1: CoeffExpr
    a2: CoeffExpr
    a3: CoeffExpr
    b0: CoeffExpr
    b1: CoeffExpr
    interval: tuple[float, float]

    def beta(self, t: float) -> float:
        """The velocity rescaling sqrt(a3(t)); positive on the interval."""
        a3 = self.a3.eval(t)
        if a3 <= 0.0:
            raise DomainError(t, self.a3, "a3 must be positive")
        return math.sqrt(a3)

    def system(self, b0_override: CoeffExpr | None = None) -> FirstOrderSystem:
        """First-order lift; ``b0_override`` exists for negative controls."""
        b0 = self.b0 if b0_override is None else b0_override
        return _system("riccati", {"a0": self.a0, "a1": self.a1, "a2": self.a2,
                                   "a3": self.a3, "b0": b0, "b1": self.b1})


def build_riccati(a0, a1, a2, a3, interval: tuple[float, float]) -> RiccatiCoeffs:
    """Validate the coefficient constraints by sampling and derive b0, b1.

    The checks are those of :func:`liesuper.odeint.lift_sode`: positivity of
    a3 at the 65 points of a 64-panel sampling of the interval, not proven,
    and a3(0) = 1 within 1e-12.  Raises ConstraintViolation naming the
    failing constraint and sample time.
    """
    sys = lift_sode(
        "riccati", {"a0": a0, "a1": a1, "a2": a2, "a3": a3}, interval=interval
    )
    return RiccatiCoeffs(**sys.coeffs, interval=tuple(interval))


def transform_state(c: RiccatiCoeffs, t: float, state: State) -> State:
    """Scheme change of variables: x' = x, v' = v/sqrt(a3(t)).

    At t = 0 (and whenever a3 = 1) this is the identity, bit for bit.
    """
    x, v = state
    return (x, v / c.beta(t))


def untransform_state(c: RiccatiCoeffs, t: float, state: State) -> State:
    """Inverse change of variables: x = x', v = sqrt(a3(t)) v'."""
    x, v = state
    return (x, v * c.beta(t))


def transformed_rhs_check(
    c: RiccatiCoeffs, b0_override: CoeffExpr | None = None
) -> Report:
    """Compare the push-forward of the lifted system with the printed target.

    At each of 20 samples (t, x', v') the time derivative of (x', v')
    computed via the chain rule through v' = v/sqrt(a3) must match the
    Lie-system right-hand side  dx'/dt = sqrt(a3) v',
    dv'/dt = -a0/sqrt(a3) - sqrt(a3)(3v'x' + x'^3) - a1 x'/sqrt(a3)
             - a2 (v' + x'^2)/sqrt(a3).
    Discrepancies are report content; ``b0_override`` lets tests demonstrate
    that dropping the a3'/(2 a3) term breaks the identity.
    """
    t0, t1 = c.interval
    samples = [
        (t0 + (t1 - t0) * (i + 0.5) / 20, 0.3 * math.sin(3.1 * i + 0.7),
         0.4 * math.cos(2.3 * i + 0.2))
        for i in range(20)
    ]
    sys = c.system(b0_override=b0_override)
    beta_dot = Sqrt(c.a3).diff()
    report = Report("push-forward of the lifted system vs printed Lie system")
    worst = 0.0
    for t, xp, vp in samples:
        beta = c.beta(t)
        v = vp * beta
        vdot = sys.rhs(t, xp, v)
        # chain rule: d(v/beta)/dt = vdot/beta - v * beta'/beta^2
        pushed = (v, vdot / beta - v * beta_dot.eval(t) / beta**2)
        printed = (
            beta * vp,
            -c.a0.eval(t) / beta
            - beta * (3 * vp * xp + xp**3)
            - c.a1.eval(t) * xp / beta
            - c.a2.eval(t) * (vp + xp**2) / beta,
        )
        disc = max(abs(pushed[0] - printed[0]), abs(pushed[1] - printed[1]))
        worst = max(worst, disc)
    report.add(
        "max |push-forward - printed RHS| over samples",
        "~0 (chain-rule identity)",
        f"{worst:.3e}",
        worst <= 1e-10,
        warn_only=True,
    )
    return report


def superpose_riccati(
    c: RiccatiCoeffs,
    trajectories: Sequence[Trajectory],
    constants: tuple[float, float] | None = None,
    target: State | None = None,
    fit_time: float | None = None,
    eps_gen: float = EPS_GEN,
) -> ReconstructionResult:
    """Time-dependent superposition for the Riccati family.

    The four trajectories (and the target state, interpreted at the fitting
    time) are mapped to scheme coordinates, reconstructed there with the
    time-independent rule, and the velocity row is mapped back.  With a3 = 1
    the output is bit-identical to :func:`liesuper.superpose.reconstruct`.
    """
    return _reconstruct(SuperposeProblem(
        trajectories, constants=constants, target=target, fit_time=fit_time,
        eps_gen=eps_gen), c)
