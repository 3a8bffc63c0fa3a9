"""Superposition kernel: F/G functions, constants, reconstruction, integrals."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesuper import superpose
from liesuper.algebra import builtin_fields
from liesuper.cli import _mutated_sl3_fields
from liesuper.coeffexpr import StateVar, _Source
from liesuper.exactpoly import Polynomial, VectorField, derive_along, prolong, prolonged_coords
from liesuper.odeint import Trajectory, integrate, lift_sode
from liesuper.superpose import (
    LAMBDA_SLOTS,
    Degenerate,
    SuperposeProblem,
    SuperpositionBasis,
    f_abc,
    fit_constants,
    g_abcd,
    genericity_product,
    lambda_integrals,
    lambda_rational_functions,
    reconstruct,
    recover_v0,
    superpose_value,
    verify_lambda_annihilation,
    _cofactors,
    _cofactors_cancel,
    _lambda_f,
    _lambda_f_polynomials,
)
from liesuper.worked_example import example_states

from conftest import sample_generic_ics
from reference import basis_rows_reference


def rand_state(rng):
    return (rng.uniform(-2, 2), rng.uniform(-2, 2))


# independently coded copies (double-entry bookkeeping for the formulas)


def f_abc_reference(sa, sb, sc):
    (xa, va), (xb, vb), (xc, vc) = sa, sb, sc
    det = (
        va * xc - va * xb + vb * xa - vb * xc + vc * xb - vc * xa
    )
    cubic = (xa - xb) * (xb - xc) * (xc - xa)
    return det + cubic


def g_abcd_reference(sa, sb, sc, sd):
    (xa, va), (xb, vb), (xc, vc), (xd, vd) = sa, sb, sc, sd
    first = xa * (
        (vd - vc) * xb
        + (vb - vd) * xc
        + (xb - xc) * xb * xc
        + (xc - xb) * xa * xd
    )
    second = xd * (
        (vc - va) * xb
        + (va - vb) * xc
        + (xc - xb) * xb * xc
        + (xb - xc) * xa * xd
    )
    return first + second


class TestFG:
    def test_f_antisymmetric(self, rng):
        for _ in range(1000):
            a, b, c = (rand_state(rng) for _ in range(3))
            base = f_abc(a, b, c)
            scale = max(1.0, abs(base))
            for perm, sign in [
                ((a, c, b), -1), ((b, a, c), -1), ((c, b, a), -1),
                ((b, c, a), 1), ((c, a, b), 1),
            ]:
                assert abs(f_abc(*perm) - sign * base) <= 1e-13 * scale

    def test_f_vanishes_on_repeats(self, rng):
        a, b = rand_state(rng), rand_state(rng)
        assert f_abc(a, a, b) == 0.0
        assert f_abc(a, b, b) == 0.0

    def test_double_entry_f(self, rng):
        for _ in range(200):
            a, b, c = (rand_state(rng) for _ in range(3))
            assert f_abc(a, b, c) == pytest.approx(
                f_abc_reference(a, b, c), rel=1e-12, abs=1e-12
            )

    def test_double_entry_g(self, rng):
        for _ in range(200):
            a, b, c, d = (rand_state(rng) for _ in range(4))
            assert g_abcd(a, b, c, d) == pytest.approx(
                g_abcd_reference(a, b, c, d), rel=1e-12, abs=1e-12
            )


class TestConstantsAndInversion:
    def test_fit_then_superpose_recovers_target(self, rng):
        for _ in range(200):
            s = [rand_state(rng) for _ in range(4)]
            target = rand_state(rng)
            try:
                lam1, lam2 = fit_constants(target, s)
                x0 = superpose_value(s, lam1, lam2)
                v0 = recover_v0(s, x0, lam1)
            except Degenerate:
                continue
            scale = max(1.0, abs(target[0]), abs(target[1]))
            assert abs(x0 - target[0]) <= 1e-9 * scale
            assert abs(v0 - target[1]) <= 1e-7 * scale

    def test_recover_v0_reproduces_lambda1(self, rng):
        for _ in range(100):
            s = [rand_state(rng) for _ in range(4)]
            target = rand_state(rng)
            try:
                lam1, lam2 = fit_constants(target, s)
                x0 = superpose_value(s, lam1, lam2)
                v0 = recover_v0(s, x0, lam1)
                lam1_back, _ = lambda_integrals([(x0, v0), *s])
            except Degenerate:
                continue
            assert lam1_back == pytest.approx(lam1, rel=1e-9, abs=1e-9)

    def test_duplicate_slot_degenerate(self):
        a, b, c = (0.1, 0.2), (0.3, -0.1), (-0.2, 0.4)
        with pytest.raises(Degenerate) as exc:
            lambda_integrals([(0.5, 0.5), a, a, b, c])
        assert exc.value.which == "F421*F310"

    def test_target_equal_to_slot4_degenerate(self):
        # fitting the fourth particular solution makes F420 and F430 both
        # vanish: Lambda2 is 0/0 there, not 0, so this raises rather than fits
        s = [(0.1, 0.2), (0.3, -0.1), (-0.2, 0.4), (0.45, -0.3)]
        with pytest.raises(Degenerate) as exc:
            fit_constants(s[3], s)
        assert exc.value.which == "F421*F430"

    def test_zero_constants_select_slot2(self, rng):
        # with lam1 = lam2 = 0 the formula collapses to x2 exactly
        for _ in range(50):
            s = [rand_state(rng) for _ in range(4)]
            try:
                assert superpose_value(s, 0.0, 0.0) == pytest.approx(
                    s[1][0], rel=1e-12, abs=1e-12
                )
            except Degenerate:
                continue


class TestWorkedExampleFamily:
    """Facts about the degenerate four-solution family of the f=0 equation."""

    def test_genericity_product_vanishes(self):
        for t in (0.5, 1.0, 1.7):
            assert abs(genericity_product(example_states(t))) < 1e-12

    def test_closed_form_of_superposition(self):
        # because F123 = 0 on this family the formula loses lam1 and equals
        # 2t(lam2-1) / (lam2 t^2 + 2 lam2 - t^2)
        for t, lam1, lam2 in itertools.product(
            (0.6, 1.0, 1.7), (-0.9, 0.2, 0.8), (-0.7, 0.3, 0.9)
        ):
            got = superpose_value(example_states(t), lam1, lam2, t=t)
            want = 2 * t * (lam2 - 1) / (lam2 * t**2 + 2 * lam2 - t**2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_lam2_one_gives_zero_solution(self):
        for t in (0.7, 1.3):
            for lam1 in (-0.5, 0.4):
                assert abs(superpose_value(example_states(t), lam1, 1.0, t=t)) < 1e-14


class TestReconstruct:
    @staticmethod
    def _grid(n=101):
        return [i / (n - 1) for i in range(n)]

    def _trajectories(self, seed):
        sys = lift_sode("mdpi")
        g = self._grid()
        ics = sample_generic_ics(seed, 5)
        trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in ics]
        return sys, g, trajs

    def test_round_trip_with_target(self):
        sys, g, trajs = self._trajectories(7)
        target_traj = trajs[4]
        problem = SuperposeProblem(trajs[:4], target=target_traj.states[0])
        result = reconstruct(problem)
        err = max(
            abs(a[0] - b[0])
            for a, b in zip(result.trajectory.states, target_traj.states)
        )
        assert err < 1e-6

    def test_lambda_drift_small(self):
        sys, g, trajs = self._trajectories(11)
        target = trajs[4]
        lams = []
        for i in range(0, len(g), 10):
            s = [tr.states[i] for tr in trajs[:4]]
            lams.append(lambda_integrals([target.states[i], *s]))
        drift = max(
            max(abs(l1 - lams[0][0]), abs(l2 - lams[0][1])) for l1, l2 in lams
        )
        assert drift < 1e-8

    def test_constants_or_target_exclusive(self):
        _, _, trajs = self._trajectories(3)
        with pytest.raises(ValueError):
            SuperposeProblem(trajs[:4])
        with pytest.raises(ValueError):
            SuperposeProblem(
                trajs[:4], constants=(0.1, 0.2), target=(0.0, 0.0)
            )
        with pytest.raises(ValueError, match="exactly four"):
            SuperposeProblem(trajs[:3], constants=(0.1, 0.2))

    def test_mismatched_grids_rejected(self):
        sys = lift_sode("mdpi")
        g1 = self._grid(11)
        g2 = [t / 2 for t in self._grid(11)]
        ics = sample_generic_ics(5)
        trajs = [integrate(sys, ic, 0.0, g1, 1e-10) for ic in ics[:3]]
        trajs.append(integrate(sys, ics[3], 0.0, g2, 1e-10))
        with pytest.raises(ValueError):
            SuperposeProblem(trajs, constants=(0.1, 0.2))

    def test_degenerate_duplicate_trajectory(self):
        sys = lift_sode("mdpi")
        g = self._grid(11)
        ics = sample_generic_ics(9)
        trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in ics[:3]]
        trajs.insert(0, trajs[0])  # duplicated particular solution
        problem = SuperposeProblem(trajs, constants=(0.3, 0.7))
        with pytest.raises(Degenerate):
            reconstruct(problem)


# signed zeros, a subnormal, and magnitudes whose products overflow
slot_value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e200, -1e-200]),
                       st.floats(-2.0, 2.0), st.floats(allow_nan=False))


@st.composite
def slot_rows(draw):
    """Rows of four slot states; one slot may repeat another's x or state."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = [(draw(slot_value), draw(slot_value)) for _ in range(4)]
        a, b = draw(st.permutations(range(4)))[:2]
        shared = draw(st.sampled_from(["none", "x", "state"]))
        if shared == "x":
            row[b] = (row[a][0], row[b][1])
        elif shared == "state":
            row[b] = row[a]
        rows.append(tuple(row))
    return rows


def row_bits(rows):
    """Every entry's exact bits: float.hex keeps the sign of a zero."""
    return [[x.hex() if isinstance(x, float) else repr(x) for x in row]
            for row in rows]


class TestBasisKernel:
    """The generated build against the loop that calls f_abc and g_abcd."""

    @settings(max_examples=300, deadline=None)
    @given(rows=slot_rows())
    def test_rows_match_the_per_point_build(self, rows):
        basis = SuperpositionBasis(range(len(rows)), rows)
        want_x, want_v = basis_rows_reference(rows)
        assert row_bits(basis._x_rows) == row_bits(want_x)
        assert row_bits(basis._v_rows) == row_bits(want_v)

    @settings(max_examples=100, deadline=None)
    @given(rows=slot_rows(), data=st.data())
    def test_riccati_scaled_rows_match(self, rows, data):
        """A Riccati reconstruction's basis is the per-point build on the
        slot velocities divided by beta(t) at each time."""
        betas = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(rows),
                                   max_size=len(rows)))
        times = tuple(range(len(rows)))

        class Coeffs:  # the one method of RiccatiCoeffs a build calls
            def beta(self, t):
                return betas[t]

        trajs = [Trajectory(times, tuple(row[j] for row in rows)) for j in range(4)]
        superpose._last_basis = ((), None)
        try:
            superpose._reconstruct(SuperposeProblem(trajs, constants=(0.3, 0.7)),
                                   Coeffs())
        except Degenerate:
            pass  # the basis is kept before it is evaluated
        kept_betas, basis = superpose._last_basis[1]
        assert kept_betas == betas
        want_x, want_v = basis_rows_reference(
            [[(x, v / b) for x, v in row] for b, row in zip(betas, rows)])
        assert row_bits(basis._x_rows) == row_bits(want_x)
        assert row_bits(basis._v_rows) == row_bits(want_v)

    def test_int_and_fraction_slots_keep_their_type(self):
        rows = [((0, 1), (2, -1), (Fraction(1, 3), 0), (-1, Fraction(1, 2)))]
        basis = SuperpositionBasis([0.0], rows)
        want_x, want_v = basis_rows_reference(rows)
        assert row_bits(basis._x_rows) == row_bits(want_x)
        assert row_bits(basis._v_rows) == row_bits(want_v)

    def test_x_row_starts_with_zero_plus_F431(self):
        # each of the four terms of F431 = f_abc(s4, s3, s1) is -0.0 here
        s1, s3, s4 = (0.0, -1.0), (0.0, 1.0), (-0.0, -1.0)
        rows = [(s1, (0.5, 0.25), s3, s4)]
        assert f_abc(s4, s3, s1).hex() == "-0x0.0p+0"
        basis = SuperpositionBasis([0.0], rows)
        assert basis._x_rows[0][0].hex() == "0x0.0p+0"
        assert row_bits(basis._x_rows) == row_bits(basis_rows_reference(rows)[0])

    def test_exact_slots_give_exact_states(self):
        """int and Fraction slots with Fraction constants: evaluate's plain
        path gives Fraction states, and they invert Lambda exactly."""
        rows = [((0, 1), (2, -1), (Fraction(1, 3), 0), (-1, Fraction(1, 2))),
                ((1, 0), (-2, 3), (Fraction(5, 2), -1), (3, Fraction(-1, 4)))]
        lam = (Fraction(1, 2), Fraction(-3, 4))
        states, min_den = SuperpositionBasis([0, 1], rows).evaluate(*lam, 0)
        assert {type(y) for state in states for y in (*state, min_den)} == {Fraction}
        for state, row in zip(states, rows):
            assert lambda_integrals([state, *row], eps_gen=0) == lam

    def test_kernel_is_generated_once(self):
        assert superpose._basis_kernel() is superpose._basis_kernel()

    @staticmethod
    def _source(hold: bool) -> list[str]:
        """The lines of the x row (x2*F431, x3*F421), then of the v row
        (d21*F431, d13*F421), both nodes of each pair built on the fly."""
        s1, s2, s3, s4 = [(StateVar("x"), StateVar("v")) for _ in range(4)]
        (x1, _), (x2, _), (x3, _) = s1, s2, s3
        F431, F421 = f_abc(s4, s3, s1), f_abc(s4, s2, s1)
        k = _Source()
        k.seen.update((leaf, f"{c}{a}") for a, s in enumerate((s1, s2, s3, s4), 1)
                      for c, leaf in zip("xu", s))
        held = (x2 * F431, x3 * F421) if hold else ()
        xr = [k.operand(e) for e in held or (x2 * F431, x3 * F421)]
        d21, d13 = x2 - x1, x1 - x3  # may reuse the memory of a freed node
        vr = [k.operand(e) for e in (d21 * F431, d13 * F421)]
        return k.lines + xr + vr

    def test_freed_nodes_are_not_read_back(self):
        """An x row emitted from a temporary tuple gives the source of one
        whose nodes are held: the emitter keeps what it has named alive."""
        assert self._source(hold=False) == self._source(hold=True)


def direct_cofactors(X):
    """The oracle: each F_abc divided on all five copies, None where inexact."""
    hat = prolong(X, 5)
    return {abc: hat.apply(f).exact_div(f) for abc, f in _lambda_f_polynomials().items()}


@st.composite
def small_fields(draw):
    """Fields on (x, v): a rational combination of X1..X8 (every cofactor
    exists), plus, half the time, a few random terms of degree <= 3."""
    coeff = st.fractions(-3, 3, max_denominator=4)
    sl3 = builtin_fields("sl3-family")
    comps = [Polynomial.zero(("x", "v"))] * 2
    for X in draw(st.lists(st.sampled_from(sl3), max_size=3)):
        c = draw(coeff)
        comps = [a + b * c for a, b in zip(comps, X.components)]
    if draw(st.booleans()):
        exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
        comps = [a + Polynomial(("x", "v"), draw(st.dictionaries(exps, coeff, max_size=3)))
                 for a in comps]
    return VectorField(comps, ("x", "v"))


class TestLambdaAnnihilation:
    def test_generators_annihilate_exactly(self):
        report = verify_lambda_annihilation()
        assert report.passed
        assert all(r.computed == "zero" for r in report.records)

    def test_f_polynomials_are_built_once_and_read_only(self):
        F = _lambda_f_polynomials()
        assert F is _lambda_f_polynomials()
        assert lambda_rational_functions() is lambda_rational_functions()
        coords = prolonged_coords(("x", "v"), 5)
        slots = [(Polynomial.variable(f"x{a}", coords),
                  Polynomial.variable(f"v{a}", coords)) for a in range(5)]
        assert dict(F) == _lambda_f(slots)
        with pytest.raises(TypeError):
            F[4, 3, 1] = F[4, 2, 1]
        with pytest.raises(TypeError):
            del F[4, 3, 1]
        assert dict(_lambda_f_polynomials()) == _lambda_f(slots)

    def test_cofactor_verdict_matches_quotient_rule(self):
        lams = lambda_rational_functions()
        for X in builtin_fields("sl3-family"):
            hat = prolong(X, 5)
            mu = _cofactors(X)
            for slots, lam in zip(LAMBDA_SLOTS, lams):
                assert _cofactors_cancel(mu, slots) == derive_along(hat, lam).num.is_zero

    @pytest.mark.parametrize("X", [
        *builtin_fields("sl3-family"),
        *builtin_fields("riccati-scheme"),
        _mutated_sl3_fields()[4],
    ], ids=[*(f"X{i}" for i in range(1, 9)), *(f"Y{i}" for i in range(1, 9)), "X5-mutated"])
    def test_renamed_cofactors_match_the_direct_division(self, X):
        assert _cofactors(X) == direct_cofactors(X)

    @settings(max_examples=60, deadline=None)
    @given(X=small_fields())
    def test_renamed_cofactors_match_the_direct_division_on_random_fields(self, X):
        assert _cofactors(X) == direct_cofactors(X)

    def test_float_integrals_match_exact_rational_functions(self, rng):
        # the numerical rule and the annihilation proof read the same f_abc
        # and LAMBDA_SLOTS; at rational points the two evaluations must agree
        lams = lambda_rational_functions()
        checked = 0
        for _ in range(60):
            xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(5)]
            vs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(5)]
            point = xs + vs  # coordinate order x0..x4, v0..v4
            dens = [lam.den.eval(point) for lam in lams]
            try:
                got = lambda_integrals([(float(x), float(v)) for x, v in zip(xs, vs)])
            except Degenerate:
                continue
            if 0 in dens:
                continue
            for lam, den, value in zip(lams, dens, got):
                exact = lam.num.eval(point) / den
                assert abs(value - exact) <= 1e-12 * abs(exact)
            checked += 1
        assert checked >= 50

    def test_mutated_x5_fails_exactly_its_two_records(self):
        report = verify_lambda_annihilation(
            all_fields=True, fields=_mutated_sl3_fields()
        )
        failed = {r.name: r.computed for r in report.records if r.status == "FAIL"}
        assert failed == {"X5^(Lambda1)": "2016 terms", "X5^(Lambda2)": "2016 terms"}
        others = [r for r in report.records if r.name not in failed]
        assert len(others) == 14
        assert all(r.status == "PASS" and r.computed == "zero" for r in others)
