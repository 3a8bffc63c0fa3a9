"""Nonlinear superposition of four particular solutions.

The central objects are the functions F_abc and G_abcd of the slot states,
the two first integrals Lambda1, Lambda2 built from them on the 5-copy
prolonged space, and the closed superposition formula expressing the unknown
solution x0 (and, by inversion, v0) from four particular solutions and two
constants.  The formula is an exact algebraic identity wherever its
denominators do not vanish; all guards here are numeric because genericity
is an open dense condition, not a checkable predicate.

Slot convention: slot 0 is the unknown/target; slots 1..4 are the particular
solutions in user-given order.  No automatic reordering is attempted —
degeneracy is reported, never repaired, since silently permuting slots would
change the meaning of the constants.

Numerically the constant-free blocks are built once per four trajectories
(:class:`SuperpositionBasis`, kept in a one-entry memo) and then evaluated
per pair of constants, bit for bit as the per-point formula.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat
from operator import is_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .coeffexpr import StateVar, _Source, _code
from .exactpoly import (Polynomial, RationalFunction, VectorField, derive_along, prolong,
                        prolonged_coords, relabel)
from .algebra import Report, builtin_fields
from .odeint import Trajectory

__all__ = [
    "EPS_GEN",
    "Degenerate",
    "State",
    "f_abc",
    "g_abcd",
    "genericity_product",
    "lambda_integrals",
    "recover_v0",
    "superpose_value",
    "fit_constants",
    "SuperposeProblem",
    "ReconstructionResult",
    "reconstruct",
    "SuperpositionBasis",
    "LAMBDA_SLOTS",
    "lambda_rational_functions",
    "verify_lambda_annihilation",
]

# absolute guard threshold, applied after scaling by the magnitude of the
# F-values entering the denominator
EPS_GEN = 1e-10

State = tuple[float, float]  # (x, v)


class Degenerate(ArithmeticError):
    """A denominator of the superposition machinery (numerically) vanished."""

    def __init__(self, which: str, value: float, t: float | None = None):
        self.which = which
        self.value = value
        self.t = t
        at = f" at t={t}" if t is not None else ""
        super().__init__(f"degenerate configuration: {which} = {float(value):.3e}{at}")


def f_abc(sa: State, sb: State, sc: State) -> float:
    """F(a,b,c) of three slot states; totally antisymmetric.

    Uses only + - *, so the exact side evaluates this same function on
    polynomial slot variables, and the basis kernel traces it once.
    """
    xa, va = sa
    xb, vb = sb
    xc, vc = sc
    return (
        va * (xc - xb)
        + vb * (xa - xc)
        + vc * (xb - xa)
        + (xa - xb) * (xb - xc) * (xc - xa)
    )


def g_abcd(sa: State, sb: State, sc: State, sd: State) -> float:
    """G(a,b,c,d) of four slot states (the superposition numerator block)."""
    xa, va = sa
    xb, vb = sb
    xc, vc = sc
    xd, vd = sd
    return xa * (
        (vd - vc) * xb + (vb - vd) * xc + (xb - xc) * xb * xc + (xc - xb) * xa * xd
    ) + xd * (
        (vc - va) * xb + (va - vb) * xc + (xc - xb) * xb * xc + (xb - xc) * xa * xd
    )


def genericity_product(s: Sequence[State]) -> float:
    """F123*F124*F134*F234 over the four particular slots (1-indexed input)."""
    s1, s2, s3, s4 = s
    return (
        f_abc(s1, s2, s3) * f_abc(s1, s2, s4) * f_abc(s1, s3, s4) * f_abc(s2, s3, s4)
    )


def _guard(which: str, den: float, scale: float, eps: float, t: float | None):
    if abs(den) <= eps * max(1.0, scale):
        raise Degenerate(which, den, t)


# Lambda1 = F431*F210/(F421*F310) and Lambda2 = F431*F420/(F421*F430) as
# ((numerator triples), (denominator triples)) of F_abc slot indices
LAMBDA_SLOTS = (
    (((4, 3, 1), (2, 1, 0)), ((4, 2, 1), (3, 1, 0))),
    (((4, 3, 1), (4, 2, 0)), ((4, 2, 1), (4, 3, 0))),
)
# built once: the six distinct triples and the guard name of each denominator
_LAMBDA_TRIPLES = tuple(
    dict.fromkeys(abc for num, den in LAMBDA_SLOTS for abc in num + den)
)
_LAMBDA_GUARDS = tuple(
    ("F%d%d%d*F%d%d%d" % (den[0] + den[1]), num, den) for num, den in LAMBDA_SLOTS
)


def _lambda_f(s: Sequence) -> dict:
    """The six distinct F_abc of LAMBDA_SLOTS over five slot values.

    The slots may be float states or exact polynomial slot variables.
    """
    return {(a, b, c): f_abc(s[a], s[b], s[c]) for a, b, c in _LAMBDA_TRIPLES}


def lambda_integrals(
    p: Sequence[State], eps_gen: float = EPS_GEN, t: float | None = None
) -> tuple[float, float]:
    """The two first integrals of a 5-slot tuple (slot 0 first).

    Lambda1 = F431*F210/(F421*F310) and Lambda2 = F431*F420/(F421*F430),
    read from LAMBDA_SLOTS.  Raises Degenerate naming the vanishing
    denominator.
    """
    F = _lambda_f(p)
    lams = []
    for which, (n1, n2), (d1, d2) in _LAMBDA_GUARDS:
        num, den = F[n1] * F[n2], F[d1] * F[d2]
        _guard(which, den, abs(num), eps_gen, t)
        lams.append(num / den)
    return tuple(lams)


@functools.cache
def _basis_kernel():
    """``slot_rows -> (x rows, v rows)`` of SuperpositionBasis: f_abc and g_abcd
    traced once on state leaves, one line per + - * in their order."""
    slots = s1, s2, s3, s4 = [(StateVar("x"), StateVar("v")) for _ in range(4)]
    (x1, v1), (x2, v2), (x3, v3) = s1, s2, s3
    F431, F421 = f_abc(s4, s3, s1), f_abc(s4, s2, s1)
    D1 = f_abc(s1, s2, s4) - f_abc(s3, s2, s4)
    D2 = f_abc(s4, s1, s2) - f_abc(s3, s1, s2)
    k = _Source()
    # slot a's leaves are the loop's xa, ua: k names its own locals v0, v1, ...
    k.seen.update((leaf, f"{c}{a}") for a, s in enumerate(slots, 1)
                  for c, leaf in zip("xu", s))
    xr = [k.operand(e) for e in (F431, D1, D2, F421, g_abcd(s3, s1, s2, s4),
                                 g_abcd(s2, s1, s3, s4), x2 * F431, x3 * F421)]
    d21, d13 = x2 - x1, x1 - x3
    vr = [k.operand(e) for e in (x1, v1, x2, v2, x3, v3, d21, d13, F431, F421,
                                 d21 * F431, d13 * F421)]
    body = "".join(f"        {line}\n" for line in k.lines)
    scale = ", ".join(f"abs({e})" for e in xr[:4])
    exec(_code(
        "def kernel(slot_rows):\n    x_rows, v_rows = [], []\n"
        "    for (x1, u1), (x2, u2), (x3, u3), (x4, u4) in slot_rows:\n"
        f"{body}        x_rows.append((0 + {', '.join(xr)}, max(1.0, {scale})))\n"
        f"        v_rows.append(({', '.join(vr)}))\n    return x_rows, v_rows\n"),
        namespace := {})
    return namespace["kernel"]


class SuperpositionBasis:
    """The blocks of the formula free of (lam1, lam2) at each of ``times``,
    from the four particular states of each ``slot_rows`` entry.  Evaluations
    keep the per-point formula's order of operations: the same bits."""

    def __init__(self, times: Sequence, slot_rows: Iterable[Sequence[State]]):
        self.times = list(times)
        self._x_rows, self._v_rows = _basis_kernel()(slot_rows)

    def positions(self, lam1, lam2, eps_gen):
        """x0 up to the first tripped guard, min |denominator|, that Degenerate."""
        xs: list[float] = []
        append = xs.append
        min_den = float("inf")
        lam12 = lam1 * lam2
        # |den| > bound * scale rules the guard out without its max over the
        # terms: every |term| is at most scale * max(1, |lam1|, |lam2|,
        # |lam12|), and the factor 2 covers the rounding of both bounds
        bound = 2.0 * eps_gen * max(1.0, abs(lam1), abs(lam2), abs(lam12))
        for (F431, D1, D2, F421, G3124, G2134, x2F431, x3F421,
             scale) in self._x_rows:
            num = x2F431 - G3124 * lam2 - G2134 * lam1 + x3F421 * lam1 * lam2
            # sum() of the four terms, from the integer 0 in the row's 0 + F431
            den = F431 + D1 * lam1 + D2 * lam2 + lam12 * F421
            a = abs(den)
            if not a > bound * scale and a <= eps_gen * max(1.0, max(map(
                    abs, (F431, D1 * lam1, D2 * lam2, lam12 * F421)))):
                return xs, min_den, Degenerate("superposition denominator",
                                               den, self.times[len(xs)])
            if a < min_den:
                min_den = a
            append(num / den)
        return xs, min_den, None

    def velocities(self, xs, lam1, eps_gen, betas=None) -> list[State]:
        """(x0, v0) at the positions ``xs``: v0 inverts Lambda1, times ``betas``."""
        states = []
        append = states.append
        for x0, (x1, v1, x2, v2, x3, v3, d21, d13, F431, F421, d21F431,
                 d13F421), b in zip(xs, self._v_rows, betas or repeat(None)):
            num = (
                v1 * (x2 - x0) + v2 * (x0 - x1) + (x1 - x0) * (x0 - x2) * d21
            ) * F431 + (
                v3 * (x1 - x0) + v1 * (x0 - x3) + (x0 - x1) * d13 * (x3 - x0)
            ) * F421 * lam1
            den = d21F431 + d13F421 * lam1
            a = abs(num)
            if abs(den) <= eps_gen * (a if a > 1.0 else 1.0):  # max(1.0, |num|)
                raise Degenerate("v0-denominator", den, self.times[len(states)])
            append((x0, num / den if b is None else num / den * b))
        return states

    def evaluate(self, lam1, lam2, eps_gen, betas=None) -> tuple[list[State], float]:
        """The (x0, v0) row and min |denominator|; Degenerate at the first
        tripped guard, the position guard first at equal times."""
        xs, min_den, failure = self.positions(lam1, lam2, eps_gen)
        states = self.velocities(xs, lam1, eps_gen, betas)
        if failure is not None:
            raise failure
        return states, min_den


def recover_v0(s: Sequence[State], x0: float, lam1: float,
               eps_gen: float = EPS_GEN, t: float | None = None) -> float:
    """Invert Lambda1 for the velocity of the unknown slot.

    ``s`` holds the four particular slot states (1..4); ``x0`` is the
    position of slot 0.
    """
    return SuperpositionBasis([t], [s]).velocities([x0], lam1, eps_gen)[0][1]


def superpose_value(s: Sequence[State], lam1: float, lam2: float,
                    eps_gen: float = EPS_GEN, t: float | None = None) -> float:
    """Position of the unknown slot from four particular states and constants."""
    xs, _, failure = SuperpositionBasis([t], [s]).positions(lam1, lam2, eps_gen)
    if failure is not None:
        raise failure
    return xs[0]


def fit_constants(
    target: State,
    s: Sequence[State],
    eps_gen: float = EPS_GEN,
    t: float | None = None,
) -> tuple[float, float]:
    """Constants reproducing the target state: the first-integral values."""
    return lambda_integrals([target, *s], eps_gen=eps_gen, t=t)


@dataclass
class SuperposeProblem:
    """Four particular trajectories plus either constants or a target state.

    Exactly one of ``constants`` and ``target`` must be given.  When fitting
    against a target initial state, ``fit_time`` selects the grid time used
    (default: the first grid point).
    """

    trajectories: Sequence[Trajectory]
    constants: tuple[float, float] | None = None
    target: State | None = None
    fit_time: float | None = None
    eps_gen: float = EPS_GEN

    def __post_init__(self):
        if len(self.trajectories) != 4:
            raise ValueError("exactly four particular trajectories are required")
        # values, whatever the container: tuple() copies only a list
        grid = tuple(self.trajectories[0].times)
        if any(tuple(traj.times) != grid for traj in self.trajectories[1:]):
            raise ValueError("all four trajectories must share one time grid")
        _check_one_of(self.constants, self.target)


def _check_one_of(constants, target) -> None:
    """Refuse both or neither of ``constants`` and ``target``."""
    if (constants is None) == (target is None):
        raise ValueError("give either constants or a target state, not both")


def _fit_index(grid: Sequence[float], fit_time: float | None) -> int:
    """The index of ``fit_time`` in ``grid`` (0 when it is None)."""
    if fit_time is None:
        return 0
    try:
        return grid.index(fit_time)
    except ValueError:
        raise ValueError(f"fit_time {fit_time} is not a grid time") from None


@dataclass
class ReconstructionResult:
    """Reconstructed trajectory plus the bookkeeping a report needs."""

    trajectory: Trajectory
    lam1: float
    lam2: float
    min_denominator: float

    def to_dict(self) -> dict:
        return {
            "lam1": self.lam1,
            "lam2": self.lam2,
            "min_denominator": self.min_denominator,
        }


_last_basis: tuple = ((), None)  # ((*trajectories, c), (beta row, basis))


def _reconstruct(problem: SuperposeProblem, c) -> ReconstructionResult:
    """The superposition rule on the whole grid, in scheme coordinates when
    ``c`` (a RiccatiCoeffs) is given: v' = v / beta(t) in, v = beta(t) v' out.

    The beta row and basis come from a one-entry memo keyed on the four
    trajectories and ``c`` by identity.  Trajectory is frozen, so a basis
    from tuple times and rows (as ``integrate`` gives) is kept and a hit
    returns what a rebuild would; list-backed trajectories rebuild.
    """
    global _last_basis
    trajs = problem.trajectories
    grid = trajs[0].times
    if problem.target is not None:
        i_fit = _fit_index(grid, problem.fit_time)
    key = (*trajs, c)
    last, built = _last_basis
    if not (len(key) == len(last) and all(map(is_, key, last))):
        _last_basis = ((), None)  # not two bases alive while building
        rows, betas = [traj.states for traj in trajs], None
        if c is not None:  # one sqrt(a3(t)) per grid time
            betas = [c.beta(t) for t in grid]
            rows = [[(x, v / b) for (x, v), b in zip(s, betas)] for s in rows]
        built = betas, SuperpositionBasis(grid, zip(*rows))
        if all({tuple}.issuperset(map(type, (traj.times, traj.states, *traj.states)))
               for traj in trajs):
            _last_basis = (key, built)
    betas, basis = built

    if problem.constants is not None:
        lam1, lam2 = problem.constants
    else:
        target = problem.target
        slots = [traj.states[i_fit] for traj in trajs]
        if betas is not None:  # fit in scheme coordinates too
            b = betas[i_fit]
            target = (target[0], target[1] / b)
            slots = [(x, v / b) for x, v in slots]
        lam1, lam2 = fit_constants(target, slots, eps_gen=problem.eps_gen,
                                   t=grid[i_fit])
    states, min_den = basis.evaluate(lam1, lam2, problem.eps_gen, betas)
    traj = Trajectory(list(grid), states, tol=trajs[0].tol, _checked=type(grid) is tuple)
    return ReconstructionResult(traj, lam1, lam2, min_den)


def reconstruct(problem: SuperposeProblem) -> ReconstructionResult:
    """Rebuild the unknown solution on the whole grid from four particular ones.

    The x row comes from the superposition formula at fixed constants, the v
    row from the exact inversion of Lambda1 (not finite differences), by one
    evaluation of the trajectories' memoised basis.  The first grid time at
    which a guard trips is reported via Degenerate(t).
    """
    return _reconstruct(problem, None)


# ---------------------------------------------------------------------------
# exact symbolic side: Lambda1, Lambda2 on the 10 prolongation coordinates


def _slot_vars(coords, a: int) -> tuple[Polynomial, Polynomial]:
    return (
        Polynomial.variable(f"x{a}", coords),
        Polynomial.variable(f"v{a}", coords),
    )


@functools.cache
def _lambda_f_polynomials() -> Mapping[tuple[int, int, int], Polynomial]:
    """The six distinct F_abc of LAMBDA_SLOTS as exact polynomials, read-only."""
    coords = prolonged_coords(("x", "v"), 5)
    return MappingProxyType(_lambda_f([_slot_vars(coords, a) for a in range(5)]))


@functools.cache
def lambda_rational_functions() -> tuple[RationalFunction, RationalFunction]:
    """Lambda1, Lambda2 as exact rational functions on (x0..x4, v0..v4)."""
    F = _lambda_f_polynomials()
    return tuple(
        RationalFunction(F[n1] * F[n2], F[d1] * F[d2])
        for (n1, n2), (d1, d2) in LAMBDA_SLOTS
    )


@functools.cache
def _f012() -> Polynomial:
    """F_012 on three copies: every F_abc is it with copies 0, 1, 2 renamed a, b, c."""
    return f_abc(*(_slot_vars(prolonged_coords(("x", "v"), 3), a) for a in range(3)))


def _cofactors(X: VectorField) -> dict:
    """mu with prolong(X, 5)(F_abc) = mu*F_abc per F_abc, None if none: the cofactor
    of F_012 under prolong(X, 3), exponent j*3 + i moved to j*5 + abc[i]."""
    f = _f012()
    mu = prolong(X, 3).apply(f).exact_div(f)
    if mu is None:  # renaming keeps divisibility
        return dict.fromkeys(_LAMBDA_TRIPLES)
    coords = prolonged_coords(X.coords, 5)
    return {abc: relabel(mu, coords, [j * 5 + a for j in range(len(X.coords)) for a in abc])
            for abc in _LAMBDA_TRIPLES}


def _cofactors_cancel(mu: dict, slots) -> bool:
    """True when each F of Lambda has a cofactor and their signed sum is 0."""
    (n1, n2), (d1, d2) = slots
    if any(mu[abc] is None for abc in (n1, n2, d1, d2)):
        return False
    return (mu[n1] + mu[n2] - mu[d1] - mu[d2]).is_zero


def verify_lambda_annihilation(
    all_fields: bool = False,
    fields: Sequence[VectorField] | None = None,
) -> Report:
    """Exact check that the prolonged fields annihilate Lambda1 and Lambda2.

    The generating fields X1, X2 suffice (the rest of the algebra is
    bracket-generated from them); ``all_fields=True`` checks all eight.
    Zero tolerance: the Lie-derivative numerator must be the zero polynomial.

    Each F_abc is a relative invariant of a prolonged sl(3,R) field X:
    X(F) = mu*F with a polynomial cofactor mu.  For a quotient of products
    of F's, X(Lambda) = Lambda*(sum of numerator mu - sum of denominator mu),
    so exact divisions and a zero cofactor sum prove X(Lambda) = 0.  Each
    F_abc is F_012 with its copies renamed, which commutes with prolonging,
    so one division on three copies gives all six mu (the tests' oracle
    divides on five).  Otherwise derive_along decides and sizes the result.
    """
    basis = list(fields) if fields is not None else builtin_fields("sl3-family")
    which = range(8) if all_fields else (0, 1)
    report = Report("exact annihilation of Lambda1/Lambda2 by prolonged fields")
    for idx in which:
        mu = _cofactors(basis[idx])
        hat = None  # the 5-copy prolongation, built only for the fallback
        for j, slots in enumerate(LAMBDA_SLOTS, 1):
            if _cofactors_cancel(mu, slots):
                computed = "zero"
            else:
                hat = hat or prolong(basis[idx], 5)
                num = derive_along(hat, lambda_rational_functions()[j - 1]).num
                computed = "zero" if num.is_zero else f"{len(num.terms)} terms"
            report.add(
                f"X{idx+1}^(Lambda{j})",
                "zero numerator",
                computed,
                computed == "zero",
            )
    return report
