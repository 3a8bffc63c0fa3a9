"""Expression trees: evaluation, exact differentiation, and the parser."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesuper.coeffexpr import (
    Add,
    Const,
    Cos,
    Div,
    DomainError,
    Exp,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sin,
    Sqrt,
    Sub,
    TimeVar,
    parse_expr,
)
from reference import tree_eval

CASES = [
    ("0", lambda t: 0.0),
    ("1 + 2*t", lambda t: 1 + 2 * t),
    ("sin(t)*cos(t)", lambda t: math.sin(t) * math.cos(t)),
    ("exp(-t^2)", lambda t: math.exp(-(t**2))),
    ("sqrt(1 + t^2)", lambda t: math.sqrt(1 + t**2)),
    ("3/4 - t/2", lambda t: 0.75 - t / 2),
    ("(1 + 0.1*sin(t))^2", lambda t: (1 + 0.1 * math.sin(t)) ** 2),
    ("t^-2", lambda t: t**-2.0),
    ("2 ^ 3 * t", lambda t: 8.0 * t),
    ("-t + - 2", lambda t: -t - 2),
]


class TestEval:
    @pytest.mark.parametrize("text,ref", CASES)
    def test_matches_reference(self, text, ref):
        e = parse_expr(text)
        for t in (0.3, 1.0, 2.7):
            assert e.eval(t) == pytest.approx(ref(t), rel=1e-14, abs=1e-14)

    def test_whitespace_insensitive(self):
        assert parse_expr(" 1+2 * t ").eval(3.0) == parse_expr("1+2*t").eval(3.0)

    def test_decimal_literals_exact(self):
        # 0.1 parses as the rational 1/10, not the nearest double
        e = parse_expr("0.1 * 10 - 1")
        assert e.eval(0.0) == 0.0


def _outcome(fn, t):
    """("value", bits) or ("error", type, node, reason, t) of one evaluation."""
    try:
        value = fn(t)
    except DomainError as exc:
        return ("error", DomainError, id(exc.node), exc.reason, exc.t)
    except (ValueError, OverflowError) as exc:
        return ("error", type(exc))
    return ("value", "nan" if math.isnan(value) else value.hex())


_leaves = st.one_of(
    st.just(TimeVar()),
    st.builds(Const, st.fractions(min_value=-20, max_value=20, max_denominator=7)),
    st.just(Const(10**400)),  # beyond the float range
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Neg, kids),
        st.builds(Pow, kids, st.integers(-4, 6) | st.sampled_from([200, 400])),
        st.builds(Sin, kids),
        st.builds(Cos, kids),
        st.builds(Exp, kids),
        st.builds(Sqrt, kids),
    ),
    max_leaves=12,
)
_times = st.floats(-60, 60) | st.sampled_from([0.0, -0.0, 1.0, 0.5])


class TestCompiled:
    @settings(max_examples=300, deadline=None)
    @given(_trees, st.lists(_times, min_size=1, max_size=4))
    def test_matches_tree_walk_bit_for_bit(self, e, times):
        # values agree to the last bit; errors name the same node, reason, t
        for t in times:
            assert _outcome(e.eval, t) == _outcome(lambda t: tree_eval(e, t), t)

    def test_closure_is_built_once(self):
        e = parse_expr("1 + t^2")
        assert e.compiled is e.compiled
        assert e.compiled(3.0) == e.eval(3.0) == 10.0

    def test_constants_keep_exact_rational_value(self):
        assert Const(Fraction(1, 3)).eval(0.0) == float(Fraction(1, 3))

    def test_power_overflow_is_a_domain_error(self):
        e = parse_expr("(t + 1000)^200")
        with pytest.raises(DomainError) as exc:
            e.eval(0.0)
        assert exc.value.reason == "overflow" and exc.value.node is e


class TestDiff:
    @pytest.mark.parametrize(
        "text",
        [c[0] for c in CASES if "t^-" not in c[0]],
    )
    def test_against_central_differences(self, text):
        e = parse_expr(text)
        d = e.diff()
        h = 1e-6
        for t in (0.4, 1.1, 2.2):
            fd = (e.eval(t + h) - e.eval(t - h)) / (2 * h)
            assert d.eval(t) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_sqrt_diff_exact_form(self):
        # d/dt sqrt(1+t^2) = t / sqrt(1+t^2)
        d = Sqrt(Const(1) + TimeVar() ** 2).diff()
        for t in (0.0, 1.0, 3.0):
            assert d.eval(t) == pytest.approx(t / math.sqrt(1 + t**2), rel=1e-14)

    @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_polynomial_diff_everywhere(self, t):
        e = parse_expr("1 - 2*t + 3*t^2 - t^3")
        assert e.diff().eval(t) == pytest.approx(-2 + 6 * t - 3 * t**2, rel=1e-12, abs=1e-12)


class TestDomain:
    def test_sqrt_negative(self):
        with pytest.raises(DomainError) as exc:
            parse_expr("sqrt(t - 1)").eval(0.0)
        assert exc.value.t == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            parse_expr("1/t").eval(0.0)

    def test_negative_power_at_zero(self):
        with pytest.raises(DomainError):
            parse_expr("t^-1").eval(0.0)


class TestParser:
    @pytest.mark.parametrize(
        "text",
        ["sin(", "1 +", "t t", "foo(t)", "1..2", "()", "t ^ x", "2 ** 3"],
    )
    def test_rejects_with_position(self, text):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert isinstance(exc.value.pos, int)
        assert str(exc.value.pos) in str(exc.value) or "position" in str(exc.value)

    def test_error_position_is_meaningful(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("sin(")
        assert exc.value.pos == 4

    def test_fractional_power_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("t^(1/2)")
