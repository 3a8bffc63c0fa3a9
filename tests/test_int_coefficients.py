"""The int-coefficient kernel against the Fraction-only arithmetic it replaced.

``exactpoly`` stores an integral coefficient as an ``int`` and builds the
results of its operations without validating them again.  Every operation is
checked here, term for term, against ``reference.FractionPolynomial``, which
keeps every coefficient a ``Fraction`` and validates every result.
"""

from fractions import Fraction

from hypothesis import assume, given, strategies as st

from liesuper.algebra import Matrix3, builtin_fields, matrix_bracket, sl3_matrices
from liesuper.exactpoly import (
    Polynomial,
    VectorField,
    lie_bracket,
    prolong,
    prolonged_coords,
)
from liesuper.superpose import _lambda_f_polynomials

import reference
from reference import FractionPolynomial

COORDS = ("x", "v")

# every p/q in [-5, 5] with q <= 7, as test_exactpoly's rationals
rationals = st.builds(lambda m, q: Fraction(m * q // 7, q),
                      st.integers(-35, 35), st.integers(1, 7))
# integers, non-integral and integral Fractions, and bools, which are ints too
coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    rationals,
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.booleans(),
)
exponents = st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=3))
term_maps = st.dictionaries(exponents, coefficients, max_size=5)
int_term_maps = st.dictionaries(exponents, st.integers(-6, 6), max_size=5)


# term maps on the 10 coordinates (x0..x4, v0..v4) of the 5-copy space
PROLONGED = prolonged_coords(COORDS, 5)
prolonged_term_maps = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * len(PROLONGED)),
    coefficients,
    max_size=4,
)
matrices = st.lists(coefficients, min_size=9, max_size=9).map(
    lambda xs: Matrix3([xs[0:3], xs[3:6], xs[6:9]]))
# mostly zeros with a few Fractions, as M4 = diag(1/3, -2/3, 1/3) among M1..M8
sparse_matrices = st.dictionaries(st.integers(0, 8), rationals, max_size=3).map(
    lambda d: Matrix3([[d.get(3 * i + j, 0) for j in range(3)] for i in range(3)]))


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


@given(term_maps, term_maps, term_maps, int_term_maps, int_term_maps,
       st.integers(2, 5))
def test_exact_div_matches_the_reference(a, b, r, ia, ib, k):
    p, d, rem = (Polynomial(COORDS, m) for m in (a, b, r))
    assume(not d.is_zero)
    cases = [(p * d, d), (p * d + rem, d)]
    # int terms over an int divisor scaled by k: the quotient ip / k is a
    # Fraction wherever k does not divide a coefficient of ip
    ip, id_ = Polynomial(COORDS, ia), Polynomial(COORDS, ib)
    if not id_.is_zero:
        cases += [(ip * id_, id_.scale(k)), (ip * id_ + rem, id_.scale(k))]
        assert (ip * id_).exact_div(id_.scale(k)) == ip.scale(Fraction(1, k))
    for n, div in cases:
        got, want = n.exact_div(div), _ref(n).exact_div(_ref(div))
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


@given(st.integers(min_value=0, max_value=7), coefficients, prolonged_term_maps)
def test_one_pass_apply_matches_the_reference_on_prolonged_fields(i, c, p):
    """c X_i prolonged to five copies, applied to each F_abc of Lambda and to
    a random polynomial: the one-pass apply against the per-coordinate sum."""
    hat = prolong(builtin_fields("sl3-family")[i].scale(c), 5)
    ref = [_ref(comp) for comp in hat.components]
    for f in (*_lambda_f_polynomials().values(), Polynomial(PROLONGED, p)):
        assert_matches(hat.apply(f), reference.apply_reference(ref, _ref(f)))


@given(st.one_of(matrices, sparse_matrices), st.one_of(matrices, sparse_matrices))
def test_matrix_bracket_is_the_commutator(A, B):
    C = matrix_bracket(A, B)
    assert C == A @ B - B @ A
    for x in C.flat():
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


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
