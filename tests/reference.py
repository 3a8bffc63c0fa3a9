"""Slow reference implementations the fast paths are checked against.

``tree_eval`` walks a ``CoeffExpr`` node by node, the way evaluation worked
before it was compiled.  ``dopri5_reference`` is the
Dormand-Prince 5(4) loop before FSAL: seven right-hand-side evaluations per
attempted step, stage sums accumulated left to right from 0 (what the builtin
``sum`` does on Python 3.11; later versions compensate float sums, so the
accumulation is spelled out here).  ``dopri5_dense_reference`` is the same
loop stepping to the last grid time only; it keeps every accepted step and
fills the grid times in between afterwards, each from the quintic Hermite
interpolant of the first step that reaches it.

``CUBIC_ROWS`` holds the accelerations of ``mdpi``, ``exam2`` and
``general`` as three trees that keep every term whatever its coefficient:
the rows of ``odeint.FAMILIES`` before the three names became maps onto one
cubic row that leaves out a term of coefficient 0.

``from_csv_reference`` reads a trajectory CSV one line at a time, checking
each row as it is read, and ``write_csv_reference`` writes one row per call:
the CSV layer before ``Trajectory`` parsed and wrote the body in bulk.
``residual_reference`` is the finite-difference residual indexing the grid
at every point, before its loop read each stencil once.

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
``basis_rows_reference`` is ``SuperpositionBasis``'s build as a loop that
calls ``f_abc`` and ``g_abcd`` at every grid time, before the build was one
kernel generated from them.
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
    StateVar,
    Sub,
    TimeVar,
)
from liesuper.algebra import Matrix3
from liesuper.exactpoly import Polynomial, VectorField
from liesuper.odeint import (
    STEP_UNDERFLOW_FACTOR,
    BlowUp,
    GridTooCoarse,
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


_X, _V = StateVar("x"), StateVar("v")
CUBIC_ROWS = {
    "mdpi": lambda f: Const(-3) * _X * _V - _X**3 + f,
    "exam2": lambda lam1: Const(-3) * _X * _V - _X**3 - lam1 * _X,
    "general": lambda f, g, h: (
        Const(-3) * _X * _V - _X**3 - f * (_V + _X**2) - g * _X - h),
}


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
        d = (y[1], sys.rhs(t, y[0], y[1]))
    except OverflowError:
        raise NonFinite(t) from None
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise NonFinite(t)
    return d


def dopri5_reference(sys, ic, t0, grid, tol, dense=False):
    """Same contract as ``liesuper.odeint.integrate``, seven stages a step.

    Time is local: t runs from 0.0 to g - t0 for each grid time g, and the
    right-hand side and every error see t0 + t.
    """
    grid = list(grid)
    local = [g - t0 for g in grid]
    span = max(local[-1], 1e-300)
    h_min = STEP_UNDERFLOW_FACTOR * span
    atol = rtol = tol

    t = 0.0
    y = (float(ic[0]), float(ic[1]))
    out_states = [y]
    h = span / 100.0
    err_prev = 1.0
    steps = rejected = 0
    accepted = []  # (t, h, y, F at y, y5, F at y5) of every accepted step

    for t_target in local[1:][-1:] if dense else local[1:]:
        while t_target - t >= h_min:  # a shorter rest counts as reached
            h = min(h, t_target - t)
            if h < h_min:
                raise BlowUp(t0 + t)
            k = []
            for s in range(7):
                ts = t0 + (t + _C[s] * h)
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
                raise NonFinite(t0 + t)
            err = math.sqrt(
                0.5
                * _sum_from_zero(
                    ((y5[i] - y4[i]) / (atol + rtol * max(abs(y[i]), abs(y5[i])))) ** 2
                    for i in range(2)
                )
            )
            steps += 1
            if err <= 1.0:
                accepted.append((t, h, y, k[0][1], y5, k[6][1]))
                t = t + h
                y = y5
                factor = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
                err_prev = max(err, 1e-10)
            else:
                rejected += 1
                factor = max(0.9 * (err + 1e-300) ** -0.2, 0.2)
            h = h * min(max(factor, 0.2), 5.0)
        out_states.append(y)

    if dense and len(grid) > 2:
        inner = []
        steps_left = iter(accepted)
        step = next(steps_left)
        for g in local[1:-1]:
            while not g <= step[0] + step[1]:
                step = next(steps_left)
            inner.append(_quintic_hermite(g, *step))
        out_states[1:1] = inner
    return Trajectory(tuple(grid), tuple(out_states), tol=tol, steps=steps,
                      rejected=rejected)


def dopri5_dense_reference(sys, ic, t0, grid, tol):
    """Same contract as ``integrate(..., dense=True)``, seven stages a step."""
    return dopri5_reference(sys, ic, t0, grid, tol, dense=True)


def _quintic_hermite(g, t, h, y0, f0, y1, f1):
    """(x, v) at time g of the quintic with value, slope and curvature
    (x0, v0, f0) at t and (x1, v1, f1) at t + h."""
    (x0, v0), (x1, v1) = y0, y1
    d, a, b, p, q = x1 - x0, h * v0, h * v1, h * h * f0, h * h * f1
    c2 = 0.5 * p
    c3 = 10 * d - 6 * a - 4 * b - 1.5 * p + 0.5 * q
    c4 = -15 * d + 8 * a + 7 * b + 1.5 * p - q
    c5 = 6 * d - 3 * a - 3 * b - 0.5 * p + 0.5 * q
    th = (g - t) / h
    x = x0 + th * (a + th * (c2 + th * (c3 + th * (c4 + th * c5))))
    dx = a + th * (p + th * (3 * c3 + th * (4 * c4 + th * (5 * c5))))
    return x, dx / h


def from_csv_reference(path):
    """``Trajectory.from_csv`` as one loop over the lines after the header."""
    times, states = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,x,v":
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                t, x, v = map(float, line.strip().split(","))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if not all(map(math.isfinite, (t, x, v))):
                raise ValueError(f"{path}, line {lineno}: non-finite value")
            if times and not t > times[-1]:
                raise ValueError(
                    f"{path}, line {lineno}: times must be strictly increasing"
                )
            times.append(t)
            states.append((x, v))
    return Trajectory(times, states)


def write_csv_reference(traj, fh):
    """``Trajectory.write_csv`` as one write per row."""
    fh.write("t,x,v\n")
    for t, (x, v) in zip(traj.times, traj.states):
        fh.write(f"{t:.17g},{x:.17g},{v:.17g}\n")


def residual_reference(sys, traj):
    """``odeint.residual`` with the grid indexed afresh at every point."""
    n = len(traj)
    if n < 7:
        raise GridTooCoarse(f"need at least 7 grid points, got {n}")
    times, xs = traj.times, traj.x
    h = times[1] - times[0]
    for a, b in zip(times, times[1:]):
        if abs((b - a) - h) > 1e-9 * max(abs(h), 1.0):
            raise GridTooCoarse("residual oracle requires a uniform grid")
    worst = 0.0
    for i in range(2, n - 2):
        xdot = (xs[i - 2] - 8 * xs[i - 1] + 8 * xs[i + 1] - xs[i + 2]) / (12 * h)
        xddot = (
            -xs[i - 2] + 16 * xs[i - 1] - 30 * xs[i] + 16 * xs[i + 1] - xs[i + 2]
        ) / (12 * h * h)
        worst = max(worst, abs(xddot - sys.rhs(times[i], xs[i], xdot)))
    return worst


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


def basis_rows_reference(slot_rows):
    """The ``_x_rows`` and ``_v_rows`` of ``SuperpositionBasis(times, slot_rows)``;
    an x row starts with 0 + F431."""
    x_rows, v_rows = [], []
    for s1, s2, s3, s4 in slot_rows:
        (x1, v1), (x2, v2), (x3, v3) = s1, s2, s3
        F431, F421 = f_abc(s4, s3, s1), f_abc(s4, s2, s1)
        D1 = f_abc(s1, s2, s4) - f_abc(s3, s2, s4)
        D2 = f_abc(s4, s1, s2) - f_abc(s3, s1, s2)
        x_rows.append((0 + F431, D1, D2, F421, g_abcd(s3, s1, s2, s4),
                       g_abcd(s2, s1, s3, s4), x2 * F431, x3 * F421,
                       max(1.0, abs(F431), abs(D1), abs(D2), abs(F421))))
        d21, d13 = x2 - x1, x1 - x3
        v_rows.append((x1, v1, x2, v2, x3, v3, d21, d13, F431, F421,
                       d21 * F431, d13 * F421))
    return x_rows, v_rows


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
    traj = Trajectory(list(grid), states, tol=trajs[0].tol)
    return ReconstructionResult(traj, lam1, lam2, min_den)


def superpose_riccati_reference(c, trajectories, constants=None, target=None,
                                fit_time=None, eps_gen=1e-10):
    """Same contract as ``liesuper.riccati.superpose_riccati``, per call."""
    grid = trajectories[0].times
    betas = [c.beta(t) for t in grid]
    moved = [
        Trajectory(list(grid), [(x, v / b) for (x, v), b in zip(tr.states, betas)],
                   tol=tr.tol)
        for tr in trajectories
    ]
    if target is not None:
        target = transform_state(c, grid[0] if fit_time is None else fit_time, target)
    res = reconstruct_reference(SuperposeProblem(
        moved, constants=constants, target=target, fit_time=fit_time,
        eps_gen=eps_gen))
    back = Trajectory(
        list(grid), [(x, v * b) for (x, v), b in zip(res.trajectory.states, betas)],
        tol=res.trajectory.tol)
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
