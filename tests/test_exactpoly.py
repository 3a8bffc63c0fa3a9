"""Exact polynomial/vector-field kernel: algebraic laws and rank machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from liesuper.exactpoly import (
    CoordinateMismatch,
    Elimination,
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
from liesuper.algebra import Matrix3, builtin_fields

import reference

COORDS = ("x", "v")

# every p/q in [-5, 5] with q <= 7: as m runs over [-35, 35], m*q // 7 runs
# over every numerator in [-5q, 5q].  Two integers draw faster than the
# flatmap behind st.fractions, which took most of this module's time
rationals = st.builds(lambda m, q: Fraction(m * q // 7, q),
                      st.integers(-35, 35), st.integers(1, 7))

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


# sparse rational vectors over slots 0..8 (the matrix slots); zero entries are
# kept so that absent and explicit zero slots are both exercised
slot_vectors = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.one_of(st.just(Fraction(0)), rationals),
    max_size=6,
)


def _combine(cs, vectors):
    out = {}
    for c, v in zip(cs, vectors):
        for s, x in v.items():
            out[s] = out.get(s, 0) + c * x
    return out


def _combine_fields(cs, basis):
    out = VectorField.zero(COORDS)
    for c, f in zip(cs, basis):
        out = out + f.scale(c)
    return out


@st.composite
def dependent_bases(draw, vectors, zero, combine):
    """Up to six vectors; some are zero, some combinations of earlier ones."""
    basis = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "zero":
            basis.append(zero)
        elif kind == "combination" and basis:
            basis.append(combine([draw(rationals) for _ in basis], basis))
        else:
            basis.append(draw(vectors))
    return basis


def _dense(vectors):
    slots = sorted({s for v in vectors for s in v})
    return [[Fraction(v.get(s, 0)) for s in slots] for v in vectors]


def _as_vector_field(vector):
    """Slot s of a vector as the x^(s//2) v^(s%2) term of the d/dx part."""
    d = {(s // 2, s % 2): x for s, x in vector.items()}
    return VectorField([Polynomial(COORDS, d), Polynomial.zero(COORDS)], COORDS)


# eight seeded 200-digit rationals of either sign
_rng = random.Random(30)
_LARGE = [f"{_rng.choice('-+')}{_rng.randrange(10**199, 10**200)}"
          f"/{_rng.randrange(10**199, 10**200)}" for _ in range(8)]


class TestElimination:
    """One fraction-free reduction with content removal, for basis rows and
    targets alike, against Bareiss's rank, sympy's rank and the eliminations
    it replaced."""

    @settings(max_examples=100)
    @given(st.data())
    def test_rank_and_coefficients_match_references(self, data):
        basis = data.draw(dependent_bases(slot_vectors, {}, _combine))
        # target slots 9..11 lie outside every basis vector
        wide = st.dictionaries(st.integers(min_value=0, max_value=11), rationals,
                               max_size=6)
        target = data.draw(wide)
        if basis and data.draw(st.booleans()):
            target = _combine([data.draw(rationals) for _ in basis], basis)
        span = Elimination(basis)
        assert span.rank == reference.fraction_free_rank(_dense(basis))
        coeffs = span.solve(target)
        fields = [_as_vector_field(v) for v in basis]
        assert coeffs == reference.in_span(_as_vector_field(target), fields)
        if basis and all(s < 9 for s in target):
            mats = [Matrix3([[v.get(3 * i + j, 0) for j in range(3)]
                             for i in range(3)]) for v in basis + [target]]
            assert coeffs == reference.matrix_coefficients(mats[-1], mats[:-1])
        if coeffs is not None:  # canonical: an int when integral
            assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                       for c in coeffs)

    @settings(max_examples=60)
    @given(st.data())
    def test_targets_holding_only_later_pivot_columns(self, data):
        # b_i holds slot i first and only slots after it, so pivot i has
        # column i, and a combination of b_m.. holds no earlier pivot's column
        n = data.draw(st.integers(min_value=2, max_value=5))
        basis = [{i: data.draw(rationals.filter(bool)),
                  **data.draw(st.dictionaries(st.integers(i + 1, 8), rationals,
                                              max_size=3))} for i in range(n)]
        m = data.draw(st.integers(min_value=1, max_value=n - 1))
        target = _combine([0] * m + [data.draw(rationals) for _ in basis[m:]], basis)
        if data.draw(st.booleans()):  # one more entry, which may leave the span
            target[data.draw(st.integers(m, 11))] = data.draw(rationals)
        assert not any(target.get(s) for s in range(m))
        expected = reference.ReferenceElimination(basis).solve(target)
        assert Elimination(basis).solve(target) == expected

    @settings(max_examples=40)
    @given(st.data())
    def test_in_span_matches_reference_on_fields(self, data):
        zero = VectorField.zero(COORDS)
        basis = data.draw(dependent_bases(fields(), zero, _combine_fields))
        X = data.draw(st.one_of(fields(), st.just(zero)))
        if basis and data.draw(st.booleans()):
            X = _combine_fields([data.draw(rationals) for _ in basis], basis)
        assert in_span(X, basis) == reference.in_span(X, basis)

    @settings(max_examples=60)
    @given(st.lists(fields(), max_size=5), points)
    def test_rank_at_matches_reference(self, basis, pt):
        rows = [f.eval(pt) for f in basis]
        assert rank_at(basis, pt) == reference.fraction_free_rank(rows)

    def test_solves_many_targets_against_one_basis(self):
        basis = [{0: 2, 1: Fraction(1, 3)}, {0: 4, 1: Fraction(2, 3)}, {}, {2: -1}]
        span = Elimination(basis)
        assert span.rank == 2
        # the dependent second vector and the zero vector get coefficient 0
        assert span.solve({0: 1, 1: Fraction(1, 6), 2: 5}) == [
            Fraction(1, 2), 0, 0, -5]
        assert span.solve({0: 1}) is None
        assert span.solve({7: 1}) is None
        assert span.solve({}) == [0, 0, 0, 0]

    @pytest.mark.parametrize("point, rank", [
        ("1/2,-1/3,2,5/7,1,0,-2/5,3", 8),  # generic
        ("1/2,1/2,2,5/7,1,1,-2/5,3", 6),  # copy 1 duplicates copy 0
        # 40-digit denominators that share the factors 2 and 3, so pivot rows
        # and their combinations carry a common content to divide out
        (f"1/{6**51},5/{2 * 6**50},-7/{3 * 6**50},2/{6**49},1,0,-2/5,3", 8),
        ("1e-60,-1/3,2,5/7,1,0,-2/5,3", 8),  # one tiny entry beside small ones
    ])
    def test_rank_rows_match_references(self, point, rank):
        # the eight rows rank_at eliminates for `liesuper rank`: the sl(3)
        # fields prolonged to four copies, at a rational point
        pt = [Fraction(p) for p in point.split(",")]
        fields8 = [prolong(X, 4) for X in builtin_fields("sl3-family")]
        rows = [dict(enumerate(f.eval(pt))) for f in fields8]
        span = Elimination(rows)
        assert span.rank == rank_at(fields8, pt) == rank
        assert span.rank == reference.fraction_free_rank(_dense(rows))
        expected = reference.ReferenceElimination(rows)
        mixed = _combine([Fraction(i - 3, i + 1) for i in range(8)], rows)
        for target in rows + [mixed]:
            assert span.solve(target) == expected.solve(target)

    @pytest.mark.parametrize("point, rank", [
        pytest.param("1e4300,-1/3,2,5/7,1,0,-2/5,3", 8, id="1e4300"),
        pytest.param(",".join(_LARGE), 8, id="200-digit"),
        # 300-digit denominators that share the factors 2 and 3
        pytest.param(f"1/{6**386},5/{2 * 6**385},-7/{3 * 6**385},2/{6**384},"
                     "1,0,-2/5,3", 8, id="300-digit-shared"),
        pytest.param(",".join([_LARGE[0], *_LARGE[:3], _LARGE[4], *_LARGE[4:7]]),
                     6, id="200-digit-duplicated-copy"),
    ])
    def test_rank_at_large_entries(self, point, rank):
        # sympy's exact rank is a third oracle, off the Bareiss path of
        # fraction_free_rank; 1e-4300 is left out, sympy takes seconds there
        sympy = pytest.importorskip("sympy")
        pt = [Fraction(p) for p in point.split(",")]
        fields8 = [prolong(X, 4) for X in builtin_fields("sl3-family")]
        rows = [f.eval(pt) for f in fields8]
        matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                for x in row] for row in rows])
        assert rank_at(fields8, pt) == matrix.rank() == rank
        assert rank == reference.fraction_free_rank(rows)

    def test_empty_basis(self):
        span = Elimination([])
        assert span.rank == 0
        assert span.solve({}) == []
        assert span.solve({0: Fraction(1, 2)}) is None


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

    @given(fields(), polynomials(), polynomials())
    def test_numerator_ignores_a_common_sign(self, X, p, q):
        # verify reads only this numerator, so p/q and (-p)/(-q) need no
        # normal form
        assume(not q.is_zero)
        assert (derive_along(X, RationalFunction(-p, -q)).num
                == derive_along(X, RationalFunction(p, q)).num)
