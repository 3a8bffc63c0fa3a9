"""Time-dependent superposition for the canonical second-order Riccati family.

The family is  xddot + (b0(t) + b1(t) x) xdot + a0 + a1 x + a2 x^2 + a3 x^3 = 0
with a3 > 0, a3(0) = 1 and the derived damping b0 = a2/sqrt(a3) - a3'/(2 a3),
b1 = 3 sqrt(a3).  The first-order lift is not a Lie system, but the
time-dependent rescaling v' = v/sqrt(a3(t)) (positions untouched) maps it
into the sl(3,R) family of :mod:`liesuper.superpose`, an exact identity that
:func:`transformed_rhs_check` proves.  The superposition therefore runs in
transformed coordinates and only the velocities are mapped back at the end.

The pipeline reads one thing of a family member, its a3: :class:`RiccatiCoeffs`
holds the a3 of the member's one lift by :func:`liesuper.odeint.lift_sode`,
whose ``coeffs`` hold the damping b0, b1.  The beta row and the transformed
basis are built once per trajectories and :class:`RiccatiCoeffs` object, in
the memo of :mod:`liesuper.superpose`.

With a3 identically 1 the rescaling is the floating-point identity, so this
whole pipeline degenerates bit-for-bit to the time-independent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import odeint
from .algebra import Report, builtin_fields
from .coeffexpr import CoeffExpr, Const, DomainError, Neg, Pow, Sqrt, StateVar
from .exactpoly import Polynomial
from .odeint import Trajectory, lift_sode
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
    """The a3 of one family member, as its lift checked it (a3(0) = 1)."""

    a3: CoeffExpr

    def beta(self, t: float) -> float:
        """The velocity rescaling sqrt(a3(t)); DomainError where a3(t) <= 0."""
        a3 = self.a3.eval(t)
        if a3 <= 0.0:
            raise DomainError(t, self.a3, "a3 must be positive")
        return math.sqrt(a3)


def build_riccati(a0, a1, a2, a3, interval: tuple[float, float]) -> RiccatiCoeffs:
    """The a3 of the member's lift, after that lift's constraint checks.

    The checks are those of :func:`liesuper.odeint.lift_sode`: positivity of
    a3 at the 65 points of a 64-panel sampling of the interval, not proven,
    and a3(0) = 1 within 1e-12.  Raises ConstraintViolation naming the
    failing constraint and sample time.  A caller that also integrates
    takes ``RiccatiCoeffs(sys.coeffs["a3"])`` from its own ``lift_sode``.
    """
    coeffs = {"a0": a0, "a1": a1, "a2": a2, "a3": a3}
    return RiccatiCoeffs(lift_sode("riccati", coeffs, interval=interval).coeffs["a3"])


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


_COORDS = ("x", "w", "a0", "a1", "a2", "s", "sp")  # s = sqrt(a3), sp = s', w = v/s
_ONE = Polynomial.constant(1, _COORDS)


class _Coeff(StateVar):
    """A coefficient as an opaque named leaf; its diff() is the leaf of a'."""

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def diff(self) -> CoeffExpr:
        return _Coeff(self.name + "'")


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:  # no product by the unit _ONE
    return q if p is _ONE else p if q is _ONE else p * q


def _quotient(e: CoeffExpr, leaves: dict) -> tuple[Polynomial, Polynomial]:
    """(N, D) with e = N/D; a leaf, or sqrt(a3), is ``leaves`` or a coordinate."""
    if isinstance(e, (StateVar, Sqrt)):
        return leaves.get(str(e)) or Polynomial.variable(str(e), _COORDS), _ONE
    if isinstance(e, Const):
        return Polynomial.constant(e.value, _COORDS), _ONE
    if isinstance(e, Neg):
        return _quotient(Const(-1) * e.arg, leaves)
    if isinstance(e, Pow):
        n, d = _quotient(e.base, leaves)
        return n ** e.exponent, d if d is _ONE else d ** e.exponent
    (n1, d1), (n2, d2) = _quotient(e.left, leaves), _quotient(e.right, leaves)
    if e.symbol == "*":
        return _mul(n1, n2), _mul(d1, d2)
    if e.symbol == "/":
        if n2.is_zero:
            raise ZeroDivisionError(f"division by zero in {e}")
        return _mul(n1, d2), _mul(d1, n2)
    n1, n2 = _mul(n1, d2), _mul(n2, d1)
    return (n1 + n2 if e.symbol == "+" else n1 - n2), _mul(d1, d2)


def transformed_rhs_check() -> Report:
    """Prove that v' = v/sqrt(a3) maps the Riccati lift into an sl(3,R) Lie system.

    The Riccati row of ``odeint.FAMILIES`` with ``odeint.riccati_damping`` (the
    integrator's trees) is read on opaque coefficients as F = N/D over _COORDS,
    with a3 = s^2, a3' = 2 s sp, sqrt(a3) = s, v = s w.  Each record holds one
    component of 4 s D (push-forward (s w, (F - w sp)/s) - printed system), the
    printed system being, in ``builtin_fields("sl3-family")`` on (x, w),
      s X1 - (a0/s) X2 - (a1/(2s)) (X3 + X7) - (a2/(4s)) (X8 - 2 X4).
    """
    x, w, a0, a1, a2, s, sp = (Polynomial.variable(n, _COORDS) for n in _COORDS)
    coeffs = {n: _Coeff(n) for n in ("a0", "a1", "a2", "a3")}
    b0, b1 = odeint.riccati_damping(coeffs["a2"], coeffs["a3"])
    leaves = {"v": s * w, "a3": s * s, "a3'": 2 * s * sp, "sqrt(a3)": s}
    num, den = _quotient(odeint.FAMILIES["riccati"][1](**coeffs, b0=b0, b1=b1), leaves)
    pushed = (4 * s * s * w * den, 4 * (num - w * sp * den))
    weights = (4 * s * s, -4 * a0, -2 * a1, 2 * a2, 0, 0, -2 * a1, -a2)
    fields = [[Polynomial(_COORDS, {e + (0,) * 5: c for e, c in p.terms.items()})
               for p in X.components] for X in builtin_fields("sl3-family")]
    report = Report("push-forward of the rescaled Riccati lift vs printed Lie system")
    for k, name in enumerate(("x", "w")):  # (x, v) components, v read as w
        printed = sum((c * X[k] for c, X in zip(weights, fields)), 0 * x)
        residual = pushed[k] - printed * den
        report.add(f"d{name}/dt residual times 4sD", 0, residual, residual.is_zero)
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
