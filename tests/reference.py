"""Slow reference implementations the fast paths are checked against.

``tree_eval`` walks a ``CoeffExpr`` node by node, the way evaluation worked
before it was compiled.  ``dopri5_reference`` is the
Dormand-Prince 5(4) loop before FSAL: seven right-hand-side evaluations per
attempted step, stage sums accumulated left to right from 0 (what the builtin
``sum`` does on Python 3.11; later versions compensate float sums, so the
accumulation is spelled out here).

``in_span``, ``matrix_coefficients`` and ``fraction_free_rank`` are the three
exact eliminations that ``exactpoly.Elimination`` replaced: Gauss-Jordan over
``Fraction`` rebuilt for every target, and Bareiss elimination for the rank.
``ReferenceElimination`` answers the ``Elimination`` interface through them.

``FractionPolynomial`` with ``apply_reference`` and ``bracket_reference`` is
the polynomial arithmetic of ``exactpoly`` before integral coefficients were
stored as ``int``: every coefficient a ``Fraction``, and every result,
intermediate ones too, validated term by term by the public constructor.

``reconstruct_reference`` and ``superpose_riccati_reference`` are the
superposition rule evaluated point by point, every F_abc and G_abcd
recomputed at each grid time for each pair of constants, the way it ran
before ``superpose.SuperpositionBasis`` stored the constant-free blocks; the
Riccati one also builds the four transformed trajectories per call.
"""

import math
from fractions import Fraction

from liesuper.coeffexpr import (
    Add,
    Const,
    Cos,
    Div,
    DomainError,
    Exp,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    TimeVar,
)
from liesuper.algebra import Matrix3
from liesuper.exactpoly import Polynomial, VectorField
from liesuper.odeint import (
    STEP_UNDERFLOW_FACTOR,
    BlowUp,
    NonFinite,
    Trajectory,
)
from liesuper.riccati import transform_state
from liesuper.superpose import (
    Degenerate,
    ReconstructionResult,
    SuperposeProblem,
    f_abc,
    fit_constants,
    g_abcd,
)


def _finite(node, t, value):
    if not math.isfinite(value):
        raise DomainError(t, node, "non-finite value")
    return value


def tree_eval(e, t):
    """Evaluate ``e`` at ``t`` by walking the tree, children left to right."""
    if isinstance(e, Const):
        try:
            return float(e.value)
        except OverflowError:
            raise DomainError(t, e, "overflow") from None
    if isinstance(e, TimeVar):
        return t
    if isinstance(e, Add):
        return _finite(e, t, tree_eval(e.left, t) + tree_eval(e.right, t))
    if isinstance(e, Sub):
        return _finite(e, t, tree_eval(e.left, t) - tree_eval(e.right, t))
    if isinstance(e, Mul):
        return _finite(e, t, tree_eval(e.left, t) * tree_eval(e.right, t))
    if isinstance(e, Div):
        den = tree_eval(e.right, t)
        if den == 0.0:
            raise DomainError(t, e, "division by zero")
        return _finite(e, t, tree_eval(e.left, t) / den)
    if isinstance(e, Neg):
        return -tree_eval(e.arg, t)
    if isinstance(e, Pow):
        base = tree_eval(e.base, t)
        if base == 0.0 and e.exponent < 0:
            raise DomainError(t, e, "zero raised to a negative power")
        try:
            value = base**e.exponent
        except OverflowError:
            raise DomainError(t, e, "overflow") from None
        return _finite(e, t, value)
    if isinstance(e, Sin):
        return math.sin(tree_eval(e.arg, t))
    if isinstance(e, Cos):
        return math.cos(tree_eval(e.arg, t))
    if isinstance(e, Exp):
        arg = tree_eval(e.arg, t)
        try:
            value = math.exp(arg)
        except OverflowError:
            raise DomainError(t, e, "overflow") from None
        return _finite(e, t, value)
    if isinstance(e, Sqrt):
        v = tree_eval(e.arg, t)
        if v < 0.0:
            raise DomainError(t, e, "sqrt of a negative value")
        return math.sqrt(v)
    raise TypeError(f"unknown node {type(e).__name__}")


# Dormand-Prince 5(4) tableau, restated independently of liesuper.odeint
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _sum_from_zero(terms):
    acc = 0
    for term in terms:
        acc = acc + term
    return acc


def _rhs_checked(sys, t, y):
    try:
        d = sys.rhs(t, y[0], y[1])
    except OverflowError:
        raise NonFinite(t) from None
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise NonFinite(t)
    return d


def dopri5_reference(sys, ic, t0, grid, tol):
    """Same contract as ``liesuper.odeint.integrate``, seven stages a step."""
    grid = list(grid)
    span = max(grid[-1] - t0, 1e-300)
    h_min = STEP_UNDERFLOW_FACTOR * span
    atol = rtol = tol

    t = t0
    y = (float(ic[0]), float(ic[1]))
    out_states = [y]
    h = span / 100.0
    err_prev = 1.0
    steps = 0

    for t_target in grid[1:]:
        while t < t_target:
            h = min(h, t_target - t)
            if h < h_min:
                raise BlowUp(t)
            k = []
            for s in range(7):
                ts = t + _C[s] * h
                ys = tuple(
                    y[i] + h * _sum_from_zero(_A[s][j] * k[j][i] for j in range(s))
                    for i in range(2)
                )
                k.append(_rhs_checked(sys, ts, ys))
            y5 = tuple(
                y[i] + h * _sum_from_zero(_B5[s] * k[s][i] for s in range(7))
                for i in range(2)
            )
            y4 = tuple(
                y[i] + h * _sum_from_zero(_B4[s] * k[s][i] for s in range(7))
                for i in range(2)
            )
            if not all(math.isfinite(c) for c in y5):
                raise NonFinite(t)
            err = math.sqrt(
                0.5
                * _sum_from_zero(
                    ((y5[i] - y4[i]) / (atol + rtol * max(abs(y[i]), abs(y5[i])))) ** 2
                    for i in range(2)
                )
            )
            steps += 1
            if err <= 1.0:
                t = t + h
                y = y5
                factor = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
                err_prev = max(err, 1e-10)
            else:
                factor = max(0.9 * (err + 1e-300) ** -0.2, 0.2)
            h = h * min(max(factor, 0.2), 5.0)
        out_states.append(y)

    return Trajectory(list(grid), out_states, tol=tol, steps=steps)


def fraction_free_rank(rows):
    """Exact rank by Bareiss fraction-free elimination on cleared rows."""
    if not rows:
        return 0
    # clear denominators row by row; rank is invariant under row scaling
    mat = []
    for row in rows:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm * d // math.gcd(lcm, d)
        mat.append([int(x * lcm) for x in row])
    m, n = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for r in range(rank, m):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, m):
            for c in range(col + 1, n):
                mat[r][c] = (pivot * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = pivot
        rank += 1
        if rank == m:
            break
    return rank


def in_span(X, basis):
    """Exact coefficients c with X = sum c_i basis_i, or None if not in span."""
    coords = X.coords
    slots = []
    seen = set()
    for f in list(basis) + [X]:
        for j, comp in enumerate(f.components):
            for exps in comp.terms:
                key = (j, exps)
                if key not in seen:
                    seen.add(key)
                    slots.append(key)
    if not slots:
        return [Fraction(0)] * len(basis)  # everything zero

    # rows: one equation per slot;  A c = b
    k = len(basis)
    A = [
        [basis[i].components[j].terms.get(exps, Fraction(0)) for i in range(k)]
        for (j, exps) in slots
    ]
    b = [X.components[j].terms.get(exps, Fraction(0)) for (j, exps) in slots]

    # exact Gaussian elimination with back-substitution
    m = len(A)
    pivots = []
    row = 0
    for col in range(k):
        pr = None
        for r in range(row, m):
            if A[r][col]:
                pr = r
                break
        if pr is None:
            continue
        A[row], A[pr] = A[pr], A[row]
        b[row], b[pr] = b[pr], b[row]
        inv = Fraction(1) / A[row][col]
        A[row] = [x * inv for x in A[row]]
        b[row] = b[row] * inv
        for r in range(m):
            if r != row and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
                b[r] = b[r] - f * b[row]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    # consistency: zero rows of A must have zero rhs
    for r in range(m):
        if all(x == 0 for x in A[r]) and b[r] != 0:
            return None
    coeffs = [Fraction(0)] * k
    for r, c in pivots:
        coeffs[c] = b[r]
    # free columns default to zero; verify the candidate reproduces X exactly
    combo = VectorField.zero(coords)
    for ci, f in zip(coeffs, basis):
        if ci:
            combo = combo + f.scale(ci)
    if combo == X:
        return coeffs
    return None


def matrix_coefficients(M, basis):
    """Exact coefficients of M in a matrix basis, or None."""
    cols = len(basis)
    A = [[basis[i].flat()[s] for i in range(cols)] for s in range(9)]
    b = M.flat()
    # Gaussian elimination over Fraction
    m = 9
    pivots = []
    row = 0
    for col in range(cols):
        pr = next((r for r in range(row, m) if A[r][col]), None)
        if pr is None:
            continue
        A[row], A[pr] = A[pr], A[row]
        b[row], b[pr] = b[pr], b[row]
        inv = Fraction(1) / A[row][col]
        A[row] = [x * inv for x in A[row]]
        b[row] *= inv
        for r in range(m):
            if r != row and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
                b[r] -= f * b[row]
        pivots.append((row, col))
        row += 1
    for r in range(m):
        if all(x == 0 for x in A[r]) and b[r] != 0:
            return None
    coeffs = [Fraction(0)] * cols
    for r, c in pivots:
        coeffs[c] = b[r]
    combo = basis[0].scale(coeffs[0])
    for ci, Mi in zip(coeffs[1:], basis[1:]):
        combo = combo + Mi.scale(ci)
    return coeffs if combo == M else None


def _as_matrix(vector):
    """A vector over slots 0..8 as the Matrix3 with those flat entries."""
    flat = [vector.get(s, 0) for s in range(9)]
    return Matrix3([flat[0:3], flat[3:6], flat[6:9]])


def _as_field(vector, slots):
    """A vector over arbitrary slots as a field with one monomial per slot.

    The field lives on one coordinate and slot number i becomes the monomial
    s^i, so ``in_span`` sees the same linear system in another slot order.
    """
    terms = {(slots.index(s),): x for s, x in vector.items()}
    return VectorField([Polynomial(("s",), terms)], ("s",))


class ReferenceElimination:
    """The ``exactpoly.Elimination`` interface answered by the old routines.

    The rank comes from ``fraction_free_rank`` on dense rows.  A basis of at
    least one vector over the matrix slots 0..8 is solved by
    ``matrix_coefficients``; any other basis by ``in_span``.
    """

    def __init__(self, basis):
        self.basis = [dict(v) for v in basis]
        self.slots = []
        for v in self.basis:
            self.slots += [s for s in v if s not in self.slots]
        self.rank = fraction_free_rank(
            [[Fraction(v.get(s, 0)) for s in self.slots] for v in self.basis]
        )

    def solve(self, target):
        keys = set(self.slots) | set(target)
        if self.basis and keys <= set(range(9)):
            return matrix_coefficients(
                _as_matrix(target), [_as_matrix(v) for v in self.basis]
            )
        slots = self.slots + [s for s in target if s not in self.slots]
        return in_span(
            _as_field(target, slots), [_as_field(v, slots) for v in self.basis]
        )


def _guard(which, den, scale, eps, t):
    if abs(den) <= eps * max(1.0, scale):
        raise Degenerate(which, den, t)


def _pivots(s):
    """F431 and F421 of the four particular slot states (1..4)."""
    s1, s2, s3, s4 = s
    return f_abc(s4, s3, s1), f_abc(s4, s2, s1)


def _position(s, F431, F421, lam1, lam2, eps_gen, t):
    """x0 of the superposition formula and its denominator."""
    s1, s2, s3, s4 = s
    F124 = f_abc(s1, s2, s4)
    F324 = f_abc(s3, s2, s4)
    F412 = f_abc(s4, s1, s2)
    F312 = f_abc(s3, s1, s2)
    G3124 = g_abcd(s3, s1, s2, s4)
    G2134 = g_abcd(s2, s1, s3, s4)
    num = s2[0] * F431 - G3124 * lam2 - G2134 * lam1 + s3[0] * F421 * lam1 * lam2
    terms = (
        F431,
        (F124 - F324) * lam1,
        (F412 - F312) * lam2,
        lam1 * lam2 * F421,
    )
    den = sum(terms)
    _guard("superposition denominator", den, max(map(abs, terms)), eps_gen, t)
    return num / den, den


def _velocity(s, F431, F421, x0, lam1, eps_gen, t):
    """v0 from inverting Lambda1 at the position x0."""
    s1, s2, s3, _ = s
    x1, v1 = s1
    x2, v2 = s2
    x3, v3 = s3
    num = (
        v1 * (x2 - x0) + v2 * (x0 - x1) + (x1 - x0) * (x0 - x2) * (x2 - x1)
    ) * F431 + (
        v3 * (x1 - x0) + v1 * (x0 - x3) + (x0 - x1) * (x1 - x3) * (x3 - x0)
    ) * F421 * lam1
    den = (x2 - x1) * F431 + (x1 - x3) * F421 * lam1
    _guard("v0-denominator", den, abs(num), eps_gen, t)
    return num / den


def reconstruct_reference(problem):
    """Same contract as ``liesuper.superpose.reconstruct``, point by point."""
    trajs = problem.trajectories
    grid = trajs[0].times
    eps = problem.eps_gen
    if problem.constants is not None:
        lam1, lam2 = problem.constants
    else:
        if problem.fit_time is None:
            i_fit = 0
        else:
            try:
                i_fit = grid.index(problem.fit_time)
            except ValueError:
                raise ValueError(f"fit_time {problem.fit_time} is not a grid time")
        lam1, lam2 = fit_constants(
            problem.target, [tr.states[i_fit] for tr in trajs], eps_gen=eps,
            t=grid[i_fit],
        )
    states = []
    min_den = float("inf")
    for i, t in enumerate(grid):
        s = [tr.states[i] for tr in trajs]
        F431, F421 = _pivots(s)
        x0, den = _position(s, F431, F421, lam1, lam2, eps, t)
        min_den = min(min_den, abs(den))
        states.append((x0, _velocity(s, F431, F421, x0, lam1, eps, t)))
    traj = Trajectory(list(grid), states, tol=trajs[0].tol, status="reconstructed")
    return ReconstructionResult(traj, lam1, lam2, min_den)


def superpose_riccati_reference(c, trajectories, constants=None, target=None,
                                fit_time=None, eps_gen=1e-10):
    """Same contract as ``liesuper.riccati.superpose_riccati``, per call."""
    grid = trajectories[0].times
    betas = [c.beta(t) for t in grid]
    moved = [
        Trajectory(list(grid), [(x, v / b) for (x, v), b in zip(tr.states, betas)],
                   tol=tr.tol, status=tr.status)
        for tr in trajectories
    ]
    if target is not None:
        target = transform_state(c, grid[0] if fit_time is None else fit_time, target)
    res = reconstruct_reference(SuperposeProblem(
        moved, constants=constants, target=target, fit_time=fit_time,
        eps_gen=eps_gen))
    back = Trajectory(
        list(grid), [(x, v * b) for (x, v), b in zip(res.trajectory.states, betas)],
        tol=res.trajectory.tol, status="reconstructed")
    return ReconstructionResult(back, res.lam1, res.lam2, res.min_denominator)


class FractionPolynomial:
    """Sparse polynomial over ``Fraction`` coefficients, validated on every build."""

    def __init__(self, coords, terms=None):
        self.coords = tuple(coords)
        self.terms = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.coords) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected an exact rational scalar, got {c!r}")
            if c:
                self.terms[exps] = Fraction(c)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return FractionPolynomial(self.coords, terms)

    def __neg__(self):
        return FractionPolynomial(self.coords, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return FractionPolynomial(self.coords, out)

    def scale(self, c):
        return FractionPolynomial(
            self.coords, {e: Fraction(c) * v for e, v in self.terms.items()})

    def diff(self, name):
        i = self.coords.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                out[tuple(e)] = c * exps[i]
        return FractionPolynomial(self.coords, out)

    def exact_div(self, divisor):
        """Division by the lexicographic leading term, or None if not exact."""
        lead = max(divisor.terms)
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        quot = {}
        while rem:
            top = max(rem)
            shift = tuple(a - b for a, b in zip(top, lead))
            if any(k < 0 for k in shift):
                return None
            c = quot[shift] = rem.pop(top) / lead_c
            for e, dc in divisor.terms.items():
                if e != lead:
                    key = tuple(a + b for a, b in zip(shift, e))
                    rem[key] = rem.get(key, 0) - c * dc
                    if not rem[key]:
                        del rem[key]
        return FractionPolynomial(self.coords, quot)


def apply_reference(components, p):
    """X(p) = sum_i X^i dp/dx_i, X given by its ``FractionPolynomial`` components."""
    out = FractionPolynomial(p.coords)
    for comp, name in zip(components, p.coords):
        out = out + comp * p.diff(name)
    return out


def bracket_reference(X, Y):
    """Components of [X, Y] = X(Y^i) - Y(X^i) over ``FractionPolynomial``s."""
    return [apply_reference(X, Yc) - apply_reference(Y, Xc) for Xc, Yc in zip(X, Y)]
