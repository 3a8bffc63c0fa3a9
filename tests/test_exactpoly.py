"""Exact polynomial/vector-field kernel: algebraic laws and rank machinery."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from liesuper.exactpoly import (
    CoordinateMismatch,
    Polynomial,
    RationalFunction,
    VectorField,
    derive_along,
    in_span,
    lie_bracket,
    prolong,
    prolonged_coords,
    rank_at,
)
from liesuper.algebra import builtin_fields

COORDS = ("x", "v")

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)


@st.composite
def polynomials(draw):
    terms = draw(
        st.dictionaries(exponents, rationals, min_size=0, max_size=5)
    )
    return Polynomial(COORDS, terms)


@st.composite
def fields(draw):
    return VectorField([draw(polynomials()), draw(polynomials())], COORDS)


points = st.tuples(rationals, rationals)


# ---------------------------------------------------------------------------
# polynomial ring laws


class TestPolynomial:
    def test_canonical_no_zero_terms(self):
        p = Polynomial(COORDS, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms

    def test_sub_self_is_zero(self):
        p = Polynomial(COORDS, {(2, 1): Fraction(3, 7), (0, 0): -2})
        assert (p - p).is_zero

    @given(polynomials(), polynomials(), points)
    def test_mul_matches_eval(self, p, q, pt):
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)

    @given(polynomials(), polynomials(), polynomials())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_diff_product_rule(self, p):
        q = Polynomial(COORDS, {(1, 1): 1, (0, 0): 2})
        lhs = (p * q).diff("x")
        rhs = p.diff("x") * q + p * q.diff("x")
        assert lhs == rhs

    def test_coordinate_mismatch(self):
        p = Polynomial(COORDS, {(1, 0): 1})
        q = Polynomial(("a", "b"), {(1, 0): 1})
        with pytest.raises(CoordinateMismatch):
            p + q


class TestExactDiv:
    @given(polynomials(), polynomials())
    def test_product_divides_back(self, q, d):
        assume(not d.is_zero)
        assert (q * d).exact_div(d) == q

    @given(polynomials(), polynomials(), rationals)
    def test_constant_remainder_is_not_exact(self, q, d, c):
        assume(d.degree() > 0 and c != 0)
        assert (q * d + Polynomial.constant(c, COORDS)).exact_div(d) is None

    def test_zero_divisor_rejected(self):
        p = Polynomial(COORDS, {(1, 0): 1})
        with pytest.raises(ZeroDivisionError):
            p.exact_div(Polynomial.zero(COORDS))


class TestRationalFunction:
    def test_equality_cross_multiplied(self):
        x = Polynomial.variable("x", COORDS)
        v = Polynomial.variable("v", COORDS)
        one = Polynomial.constant(1, COORDS)
        # x/v == (x*x)/(v*x) despite different representations
        assert RationalFunction(x, v) == RationalFunction(x * x, v * x)
        assert RationalFunction(x, v) != RationalFunction(x, one)

    def test_zero_denominator_rejected(self):
        x = Polynomial.variable("x", COORDS)
        with pytest.raises(ZeroDivisionError):
            RationalFunction(x, Polynomial.zero(COORDS))


# ---------------------------------------------------------------------------
# bracket laws


class TestBracket:
    @given(fields(), fields())
    def test_antisymmetry(self, X, Y):
        assert lie_bracket(X, Y) == -lie_bracket(Y, X)

    @given(fields(), fields(), rationals, rationals)
    def test_bilinearity(self, X, Y, a, b):
        Z = builtin_fields("sl3-family")[0]
        lhs = lie_bracket(X.scale(a) + Y.scale(b), Z)
        rhs = lie_bracket(X, Z).scale(a) + lie_bracket(Y, Z).scale(b)
        assert lhs == rhs

    @settings(max_examples=25)
    @given(fields(), fields(), fields())
    def test_jacobi(self, X, Y, Z):
        total = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        assert total.is_zero

    @given(fields(), polynomials(), polynomials())
    def test_apply_leibniz(self, X, p, q):
        assert X.apply(p * q) == X.apply(p) * q + p * X.apply(q)


# ---------------------------------------------------------------------------
# prolongation


class TestProlong:
    def test_coordinate_order(self):
        assert prolonged_coords(COORDS, 3) == ("x0", "x1", "x2", "v0", "v1", "v2")

    @pytest.mark.parametrize("copies", [2, 3, 5])
    def test_bracket_morphism(self, copies):
        # prolongation is a Lie-algebra morphism: [X^, Y^] = [X, Y]^
        basis = builtin_fields("sl3-family")
        for a in range(0, 8, 3):
            for b in range(1, 8, 3):
                X, Y = basis[a], basis[b]
                lhs = lie_bracket(prolong(X, copies), prolong(Y, copies))
                rhs = prolong(lie_bracket(X, Y), copies)
                assert lhs == rhs

    def test_acts_identically_on_each_copy(self):
        X = builtin_fields("sl3-family")[0]  # v d/dx - (3xv+x^3) d/dv
        hat = prolong(X, 2)
        pt = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(1, 5)]
        # copy 0 sees (x0, v0) = (1/2, 2); copy 1 sees (1/3 -> -1/3, 1/5)
        vals = hat.eval(pt)
        base0 = X.eval([Fraction(1, 2), Fraction(2)])
        base1 = X.eval([Fraction(-1, 3), Fraction(1, 5)])
        assert vals == [base0[0], base1[0], base0[1], base1[1]]


# ---------------------------------------------------------------------------
# exact linear algebra


class TestRankAndSpan:
    def test_rank_invariant_under_permutation_and_scaling(self, rng):
        basis = builtin_fields("sl3-family")
        prolonged = [prolong(X, 4) for X in basis]
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
        r = rank_at(prolonged, pt)
        shuffled = list(prolonged)
        rng.shuffle(shuffled)
        scaled = [X.scale(Fraction(3, 2)) for X in shuffled]
        assert rank_at(scaled, pt) == r

    def test_in_span_exact_coefficients(self):
        basis = builtin_fields("sl3-family")
        combo = basis[0].scale(Fraction(2, 3)) + basis[5].scale(-4)
        coeffs = in_span(combo, basis)
        assert coeffs is not None
        assert coeffs[0] == Fraction(2, 3)
        assert coeffs[5] == -4
        assert all(c == 0 for i, c in enumerate(coeffs) if i not in (0, 5))

    def test_in_span_rejects_outsider(self):
        basis = builtin_fields("riccati-scheme")
        x = Polynomial.variable("x", COORDS)
        outsider = VectorField([Polynomial.zero(COORDS), x**4], COORDS)
        assert in_span(outsider, basis) is None


class TestDeriveAlong:
    @given(fields(), polynomials(), polynomials())
    def test_quotient_rule(self, X, p, q):
        if q.is_zero:
            q = Polynomial.constant(1, COORDS)
        lam = RationalFunction(p, q)
        d = derive_along(X, lam)
        # d == (q X(p) - p X(q)) / q^2 as rational functions
        expected = RationalFunction(
            q * X.apply(p) - p * X.apply(q), q * q
        )
        assert d == expected
