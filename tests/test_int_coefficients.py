"""The int-coefficient kernel against the Fraction-only arithmetic it replaced.

``exactpoly`` stores an integral coefficient as an ``int`` and builds the
results of its operations without validating them again.  Every operation is
checked here, term for term, against ``reference.FractionPolynomial``, which
keeps every coefficient a ``Fraction`` and validates every result.
"""

from fractions import Fraction

from hypothesis import assume, given, strategies as st

from liesuper.algebra import Matrix3, sl3_matrices
from liesuper.exactpoly import Polynomial, VectorField, lie_bracket

import reference
from reference import FractionPolynomial

COORDS = ("x", "v")

# integers, non-integral and integral Fractions, and bools, which are ints too
coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.booleans(),
)
term_maps = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3)),
    coefficients,
    max_size=5,
)


def _ref(p: Polynomial) -> FractionPolynomial:
    return FractionPolynomial(p.coords, p.terms)


def assert_matches(p: Polynomial, ref: FractionPolynomial) -> None:
    """p equals the reference term for term and is stored canonically."""
    assert p.coords == ref.coords
    assert p.terms == ref.terms
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(term_maps, term_maps)
def test_ring_operations_match_the_reference(a, b):
    p, q = Polynomial(COORDS, a), Polynomial(COORDS, b)
    rp, rq = FractionPolynomial(COORDS, a), FractionPolynomial(COORDS, b)
    assert_matches(p, rp)
    assert_matches(p + q, rp + rq)
    assert_matches(p - q, rp - rq)
    assert_matches(-p, -rp)
    assert_matches(p * q, rp * rq)
    for name in COORDS:
        assert_matches(p.diff(name), rp.diff(name))


@given(term_maps, coefficients)
def test_scale_matches_the_reference(a, c):
    p = Polynomial(COORDS, a)
    assert_matches(p.scale(c), FractionPolynomial(COORDS, a).scale(c))
    assert_matches(p * c, FractionPolynomial(COORDS, a).scale(c))


@given(term_maps, term_maps, term_maps)
def test_exact_div_matches_the_reference(a, b, r):
    p, d, rem = (Polynomial(COORDS, m) for m in (a, b, r))
    assume(not d.is_zero)
    for n in (p * d, p * d + rem):
        got, want = n.exact_div(d), _ref(n).exact_div(_ref(d))
        assert (got is None) == (want is None)
        if got is not None:
            assert_matches(got, want)


@given(term_maps, term_maps, term_maps, term_maps, term_maps)
def test_apply_and_bracket_match_the_reference(x1, x2, y1, y2, p):
    X = VectorField([Polynomial(COORDS, x1), Polynomial(COORDS, x2)], COORDS)
    Y = VectorField([Polynomial(COORDS, y1), Polynomial(COORDS, y2)], COORDS)
    rX = [FractionPolynomial(COORDS, m) for m in (x1, x2)]
    rY = [FractionPolynomial(COORDS, m) for m in (y1, y2)]
    assert_matches(X.apply(Polynomial(COORDS, p)),
                   reference.apply_reference(rX, FractionPolynomial(COORDS, p)))
    for got, want in zip(lie_bracket(X, Y).components,
                         reference.bracket_reference(rX, rY)):
        assert_matches(got, want)


@given(term_maps)
def test_int_and_integral_fraction_inputs_are_one_polynomial(a):
    as_fractions = {e: Fraction(c) for e, c in a.items()}
    p, q = Polynomial(COORDS, a), Polynomial(COORDS, as_fractions)
    assert p == q
    assert hash(p) == hash(q)
    assert p.terms == {e: c for e, c in a.items() if c}
    assert Polynomial(COORDS, {(1, 0): 3}).terms == {(1, 0): 3}
    assert hash(Polynomial(COORDS, {(1, 0): 3})) == hash(
        Polynomial(COORDS, {(1, 0): Fraction(3)}))


def test_matrix_entries_are_canonical():
    half = Matrix3([[Fraction(1, 2), Fraction(4, 2), True]] * 3)
    for M in sl3_matrices() + [half, half @ half, half.scale(Fraction(2))]:
        for x in M.flat():
            assert type(x) is int or x.denominator != 1
    assert half.scale(Fraction(2)).flat()[:3] == [1, 4, 2]
