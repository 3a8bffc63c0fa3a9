"""Expression trees: evaluation, exact differentiation, and the parser."""

import functools
import itertools
import math
import os
import pathlib
import random
import re
import subprocess
import sys
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
    StateVar,
    Sub,
    TimeVar,
    _generate,
    parse_expr,
)
from liesuper import odeint
from liesuper.odeint import lift_sode
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
    ("1/(1 + t)", lambda t: 1 / (1 + t)),
    ("sin(t)/(2 + cos(t))", lambda t: math.sin(t) / (2 + math.cos(t))),
    ("(1 + t)^0", lambda t: 1.0),
    ("+t", lambda t: t),
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

    def test_nodes_are_immutable(self):
        # the kernel is cached on the node: a node changed after its first
        # evaluation would print one tree and evaluate another
        e = parse_expr("t + 1")
        assert e.eval(0.0) == 1.0
        for node, attr in ((e, "right"), (e.right, "value"), (e.left, "_fn"),
                           (parse_expr("t^2"), "exponent"),
                           (parse_expr("sin(t)"), "arg"), (StateVar("x"), "name")):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(node, attr, Const(5))
        assert (str(e), e.eval(0.0)) == ("(t + 1)", 1.0)
        lifted = lift_sode("mdpi", {"f": "1"})
        with pytest.raises(AttributeError, match="immutable"):
            lifted.coeffs["f"].value = 9
        assert lifted.rhs(0.0, 0.0, 0.0) == 1.0

    def test_state_variable_name_is_checked_under_python_O(self):
        # the name is written into the kernel's source, so the check must
        # not be an assert, which python -O strips
        with pytest.raises(ValueError, match="x or v"):
            StateVar("x*0 + 41")
        src = pathlib.Path(odeint.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-O", "-c",
             "from liesuper.coeffexpr import StateVar; StateVar('x*0 + 41')"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == (
            "ValueError: a state variable is x or v, not 'x*0 + 41'")


def _copy(e):
    """A structurally equal tree built from fresh nodes."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, TimeVar):
        return TimeVar()
    if isinstance(e, Pow):
        return Pow(_copy(e.base), e.exponent)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(_copy(e.left), _copy(e.right))
    return type(e)(_copy(e.arg))


@st.composite
def _tuples_sharing_subtrees(draw):
    """Trees over a small pool, sharing subtrees as objects and as copies."""
    pool = draw(st.lists(_trees, min_size=1, max_size=3))

    def pick():
        e = draw(st.sampled_from(pool))
        return _copy(e) if draw(st.booleans()) else e

    out = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["pool", "add", "div", "sqrt", "pow"]))
        e = pick()
        if shape == "add":
            e = Add(e, pick())
        elif shape == "div":
            e = Div(e, pick())
        elif shape == "sqrt":
            e = Sqrt(e)
        elif shape == "pow":
            e = Pow(e, draw(st.integers(-2, 3)))
        out.append(e)
    return tuple(out)


def _compound_keys(e, keys):
    """Collect the structure of every subtree of ``e`` that is not a leaf."""
    if isinstance(e, Const):
        return ("c", e.value)
    if isinstance(e, TimeVar):
        return ("t",)
    if isinstance(e, StateVar):
        return ("s", e.name)
    if isinstance(e, Pow):
        key = ("Pow", _compound_keys(e.base, keys), e.exponent)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        key = (type(e).__name__, _compound_keys(e.left, keys),
               _compound_keys(e.right, keys))
    else:
        key = (type(e).__name__, _compound_keys(e.arg, keys))
    keys.add(key)
    return key


def _varies(key):
    """Whether the subtree with structure ``key`` reads t or the state."""
    return key[0] in ("t", "s") or any(
        isinstance(part, tuple) and _varies(part) for part in key)


# coefficient slots in the order each family's formula reads them, with a
# reference right-hand side on tree-walk values
_FORMULAS = {
    "mdpi": (("f",), lambda x, v, f: -3.0 * x * v - x**3 + f),
    "exam2": (("lam1",), lambda x, v, lam1: -3.0 * x * v - x**3 - lam1 * x),
    "general": (
        ("f", "g", "h"),
        lambda x, v, f, g, h: -3.0 * x * v - x**3 - f * (v + x**2) - g * x - h,
    ),
    "riccati": (
        ("b0", "b1", "a0", "a1", "a2", "a3"),
        lambda x, v, b0, b1, a0, a1, a2, a3: (
            -(b0 + b1 * x) * v - a0 - a1 * x - a2 * x**2 - a3 * x**3),
    ),
}
_DISTINCT_COEFFS = {
    "mdpi": {"f": "sin(t) - 1/3"},
    "exam2": {"lam1": "1/2 + t"},
    "general": {"f": "cos(t)", "g": "2 + t/3", "h": "exp(-t)/5"},
    "riccati": {"a0": "cos(t)", "a1": "3/10", "a2": "sin(t)/2", "a3": "1 + t^2/4"},
}


class TestCompileMany:
    """Kernels of trees that share subtrees, and the lifted right-hand sides."""

    @settings(max_examples=300, deadline=None)
    @given(_tuples_sharing_subtrees(), st.lists(_times, min_size=1, max_size=4))
    def test_tuples_match_tree_walk_bit_for_bit(self, exprs, times):
        # the trees summed left to right are evaluated in order, each in
        # tree-walk order: the first error names the node, reason and t of
        # the tree walk, and a subtree shared between them runs once
        tree = functools.reduce(Add, exprs)
        for t in times:
            assert _outcome(tree.eval, t) == _outcome(
                lambda t: tree_eval(tree, t), t)

    def test_riccati_kernel_computes_each_subtree_once(self):
        sys = lift_sode("riccati", _DISTINCT_COEFFS["riccati"])
        accel = odeint.FAMILIES["riccati"][1](**sys.coeffs)
        source, _ = _generate(accel)
        distinct = set()
        _compound_keys(accel, distinct)
        # one assignment per distinct subtree that reads t or the state: a3
        # and sqrt(a3), shared by b0, b1 and a3 itself, are computed once
        # each, and a constant subtree such as a1 = 3/10 is folded into a
        # constant
        assert len(re.findall(r"^ +v\d+ = ", source, re.M)) == len(
            {key for key in distinct if _varies(key)}) < len(distinct)
        assert source.count("sqrt(") == 1

    def test_riccati_with_a3_one_folds_sqrt_a3(self):
        # b0 and b1 read a3 = 1 and sqrt(a3) only through constants, and
        # the acceleration is still the tree walk's, bit for bit
        sys = lift_sode("riccati", {"a3": "1", "a2": "sin(t)"})
        accel = odeint.FAMILIES["riccati"][1](**sys.coeffs)
        source, _ = _generate(accel)
        assert "sqrt(" not in source
        names, ref = _FORMULAS["riccati"]
        for t, x, v in ((0.0, 0.5, -1.0), (0.7, -1.5, 2.0)):
            coeffs = [tree_eval(sys.coeffs[name], t) for name in names]
            assert sys.rhs(t, x, v).hex() == ref(x, v, *coeffs).hex()

    def test_source_depends_only_on_the_shape(self):
        a, b = parse_expr("12345*t + exp(-t^3)"), parse_expr("2*t + exp(-t^5)")
        (source_a, bound_a), (source_b, bound_b) = (_generate(e) for e in (a, b))
        assert source_a == source_b and bound_a != bound_b
        assert "12345" not in source_a
        # one code object, and each tree its own constants
        assert a.compiled.__code__ is b.compiled.__code__
        assert (a.eval(0.5), b.eval(0.5)) == (tree_eval(a, 0.5), tree_eval(b, 0.5))

    @pytest.mark.parametrize("family", sorted(_FORMULAS))
    def test_lifted_rhs_matches_tree_walk_bit_for_bit(self, family):
        # the distinct coefficients at random states; then each coefficient
        # as the literal 0, the literal 1 (a3: 1 only) or its distinct tree,
        # at states with signed zeros, where a term left out for its zero
        # coefficient or a factor left out for being 1 could flip a sign
        names, accel = _FORMULAS[family]
        rng = random.Random(20261018)
        points = [(rng.uniform(0, 1), rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(200)]
        signed = list(itertools.product((0.0, 0.7), (0.0, -0.0, 1.0, -1.0),
                                        (0.0, -0.0, 1.0, -1.0)))
        distinct = _DISTINCT_COEFFS[family]
        choices = [("1", text) if name == "a3" else ("0", "1", text)
                   for name, text in distinct.items()]
        cases = [(distinct, points)] + [
            (dict(zip(distinct, c)), signed) for c in itertools.product(*choices)]
        for given, states in cases:
            sys = lift_sode(family, given)
            for t, x, v in states:
                coeffs = [tree_eval(sys.coeffs[name], t) for name in names]
                assert sys.rhs(t, x, v).hex() == accel(x, v, *coeffs).hex(), (
                    given, t, x, v)

    @pytest.mark.parametrize("family", sorted(_FORMULAS))
    def test_state_values_carry_no_check(self, family):
        # a value that reads x or v gets no try/except and no isfinite line,
        # so a state too large for the formula reaches the integrator as an
        # OverflowError or a non-finite value; coefficient values keep theirs
        sys = lift_sode(family, _DISTINCT_COEFFS[family])
        accel = odeint.FAMILIES[family][1](**sys.coeffs)
        source, _ = _generate(accel)
        lines = source.splitlines()
        assert lines[0] == "def kernel(t, x, v):"
        state, checked = {"x", "v"}, []
        for before, line in zip(lines, lines[1:]):
            assigned = re.match(r" +(v\d+) = (.*)", line)
            if assigned and state & set(re.findall(r"\w+", assigned[2])):
                state.add(assigned[1])
                checked += [line] if before.strip() == "try:" else []
            tested = re.search(r"isfinite\((\w+)\)", line)
            checked += [line] if tested and tested[1] in state else []
        assert checked == []
        # the acceleration itself reads the state; the coefficients keep checks
        assert re.fullmatch(r" +return (v\d+)", lines[-1])[1] in state
        assert "isfinite(" in source


class TestConstantFolding:
    def test_constant_subtree_is_one_constant(self):
        e = parse_expr("t + (2/3)*(1 + 1)^3 - sqrt(4)")
        source, _ = _generate(e)
        assert len(re.findall(r"^ +v\d+ = ", source, re.M)) == 2
        assert "sqrt(" not in source and "**" not in source
        assert _outcome(e.eval, 0.3) == _outcome(lambda t: tree_eval(e, t), 0.3)

    def test_failing_constant_raises_at_the_stage_time(self):
        # 1/(1 - 1) cannot be folded: it stays in the kernel and raises the
        # tree walk's DomainError, naming its node, at the time of the call
        sys = lift_sode("mdpi", {"f": "1/(1 - 1)"})
        node = sys.coeffs["f"]
        with pytest.raises(DomainError) as exc:
            sys.rhs(0.25, 1.0, 0.0)
        assert (exc.value.node, exc.value.reason, exc.value.t) == (
            node, "division by zero", 0.25)
        with pytest.raises(DomainError) as exc:
            odeint.integrate(sys, (1.0, 0.0), 0.5, [0.5, 1.0], 1e-8)
        assert (exc.value.node, exc.value.t) == (node, 0.5)

    def test_folded_negative_zero_keeps_its_sign(self):
        # -0.0 == 0.0, so a constant table keyed by value alone would hand
        # both the same global
        # both, and t*(-0) - 0 is -0.0 only when each keeps its own sign
        e = Sub(Mul(TimeVar(), Neg(Const(0))), Const(0))
        _, bound = _generate(e)
        assert sorted(repr(c) for c in bound.values()
                      if isinstance(c, float)) == ["-0.0", "0.0"]
        assert _outcome(e.eval, 2.0) == _outcome(lambda t: tree_eval(e, t), 2.0)
        assert _outcome(e.eval, 2.0)[1] == "-0x0.0p+0"
        # 1/(-0.0) divides by zero: not folded, and raised at t
        e = Div(Const(1), Neg(Const(0)))
        assert _outcome(e.eval, 2.0) == _outcome(lambda t: tree_eval(e, t), 2.0)

    @pytest.mark.parametrize("coeffs", [{"a3": "1", "a2": "sin(t)"},
                                        {"a3": "1 + t^2/4"}])
    def test_folded_nonzero_denominator_is_not_tested(self, coeffs):
        # v0 / sqrt(1) and t^2 / 4 divide by constants that folded to a
        # nonzero value; only denominators that read t keep their test
        sys = lift_sode("riccati", coeffs)
        accel = odeint.FAMILIES["riccati"][1](**sys.coeffs)
        source, bound = _generate(accel)
        tested = re.findall(r"if (\w+) == 0\.0:", source)
        assert not any(name in bound for name in tested)
        if coeffs["a3"] == "1":
            assert tested == []

    def test_folded_zero_denominator_keeps_its_test(self):
        sys = lift_sode("mdpi", {"f": "t/(1 - 1)"})
        with pytest.raises(DomainError) as exc:
            sys.rhs(0.5, 1.0, 0.0)
        assert str(exc.value) == "division by zero in (t / (1 - 1)) at t=0.5"


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

    def test_constant_denominator_is_not_squared(self):
        # d/dt (t/10^200) is 1/10^200: the full quotient rule squared 10^200,
        # an overflow that made a valid Riccati a3 exit 2
        d = parse_expr("1 + t/10^200").diff()
        assert "^2)" not in str(d)
        assert d.eval(0.5) == pytest.approx(1e-200, rel=1e-15)
        lift_sode("riccati", {"a3": "1 + t/10^200"}).rhs(0.5, 1.0, 0.0)

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
        ["sin(", "1 +", "t t", "foo(t)", "1..2", "()", "t ^ x", "2 ** 3",
         "t^²", "²", "1²", "٣*t", "sin(t", "(t", "."],
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
