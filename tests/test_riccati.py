"""Time-dependent Riccati pipeline: transform, consistency check, superposition."""

import pytest

from liesuper import odeint
from liesuper.algebra import builtin_fields
from liesuper.coeffexpr import Const, DomainError, Neg, Sqrt, _mul, _sub
from liesuper.exactpoly import Polynomial
from liesuper.odeint import ConstraintViolation, Trajectory, integrate, lift_sode
from liesuper.riccati import (
    _COORDS,
    RiccatiCoeffs,
    _Coeff,
    _quotient,
    build_riccati,
    superpose_riccati,
    transform_state,
    transformed_rhs_check,
    untransform_state,
)
from liesuper.superpose import SuperposeProblem, reconstruct

from conftest import sample_generic_ics

A0, A1, A2, A3 = "0.1*cos(t)", "0.2", "0.1*sin(t)", "(1 + 0.1*sin(t))^2"
WINDOW = (0.0, 0.8)


def coeffs():
    return build_riccati(A0, A1, A2, A3, interval=WINDOW)


def lift():
    return lift_sode("riccati", {"a0": A0, "a1": A1, "a2": A2, "a3": A3},
                     interval=WINDOW)


def grid(n=81):
    t0, t1 = WINDOW
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]


class TestBuild:
    def test_derived_damping(self):
        c = lift().coeffs
        # at t = 0: a3 = 1, a3' = 0.2, a2 = 0 -> b0 = -0.1, b1 = 3
        assert c["b0"].eval(0.0) == pytest.approx(-0.1, rel=1e-12)
        assert c["b1"].eval(0.0) == pytest.approx(3.0, rel=1e-12)

    def test_constraints_enforced(self):
        with pytest.raises(ConstraintViolation):
            build_riccati("0", "0", "0", "2 + t", interval=WINDOW)
        with pytest.raises(ConstraintViolation):
            build_riccati("0", "0", "0", "1 - 2*t^2", interval=(0.0, 1.0))


class TestTransform:
    def test_identity_at_t0(self):
        c = coeffs()
        s = (0.3, -0.2)
        assert transform_state(c, 0.0, s) == s  # a3(0) = 1, bit for bit

    def test_inverse(self):
        c = coeffs()
        for t in (0.1, 0.4, 0.75):
            s = (0.37, -1.21)
            back = untransform_state(c, t, transform_state(c, t, s))
            assert back[0] == s[0]
            assert back[1] == pytest.approx(s[1], rel=1e-14)

    def test_positions_untouched(self):
        c = coeffs()
        assert transform_state(c, 0.5, (1.7, 0.3))[0] == 1.7


class TestTransformedRhs:
    def test_chain_rule_identity(self):
        # the chain-rule push-forward equals the printed Lie system exactly
        report = transformed_rhs_check()
        assert report.passed
        assert [(r.status, r.computed) for r in report.records] == [("PASS", "0")] * 2

    def test_negative_control_dropped_derivative_term(self, monkeypatch):
        # a damping b0 = a2/sqrt(a3), without the -a3'/(2 a3) term, must break
        # the identity in dw/dt, and the record must name the residual
        monkeypatch.setattr(odeint, "riccati_damping",
                            lambda a2, a3: (a2 / Sqrt(a3), Const(3) * Sqrt(a3)))
        x_rec, w_rec = transformed_rhs_check().records
        assert (x_rec.status, x_rec.computed) == ("PASS", "0")
        assert (w_rec.status, w_rec.computed) == ("FAIL", "-4*w*s*sp")

    def test_negative_control_changed_family_row(self, monkeypatch):
        # the check reads the Riccati row the integrator runs: a1 x read as
        # a2 x there must fail, with the residual 4 (a1 - a2) x D, D = 2 s^3
        X, V = odeint.X, odeint.V
        defaults, _ = odeint.FAMILIES["riccati"]
        monkeypatch.setitem(odeint.FAMILIES, "riccati", (
            defaults, lambda a0, a1, a2, a3, b0, b1:
            Neg(b0 + b1 * X) * V - a0 - a2 * X - a2 * X**2 - a3 * X**3))
        report = transformed_rhs_check()
        x_rec, w_rec = report.records
        assert not report.passed and x_rec.status == "PASS"
        assert (w_rec.status, w_rec.computed) == ("FAIL", "8*x*a1*s^3 - 8*x*a2*s^3")
        # the lift built from the same row reads a2 x too: one tree, not two
        sys = lift_sode("riccati", {"a1": "1", "a2": "0"})
        assert sys.rhs(0.0, 1.0, 0.0) == -1.0

    def test_zero_divisor_is_refused(self, monkeypatch):
        # a row dividing by zero has no quotient, and cannot pass vacuously
        defaults, accel = odeint.FAMILIES["riccati"]
        monkeypatch.setitem(odeint.FAMILIES, "riccati", (
            defaults, lambda **c: accel(**c) / (c["a1"] - c["a1"])))
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            transformed_rhs_check()


def _cubic_residuals(family):
    """Both components of 4D (the lift of ``family``'s row - the printed
    combination X1 - h X2 - (g/2)(X3 + X7) - (f/4)(X8 - 2 X4)).

    The row is read through ``_quotient`` as F = N/D on opaque coefficient
    leaves, at s = 1 with v read as w: ``general``'s f, g, h as the leaves
    a2, a1, a0, ``mdpi``'s f as a0 with h = -a0, ``exam2``'s lam1 as a1 with
    g = a1, and every other coefficient of the combination 0.
    """
    x, w, a0, a1, a2 = (Polynomial.variable(n, _COORDS) for n in _COORDS[:5])
    zero = 0 * x
    leaves, (f, g, h) = {
        "general": ({"f": "a2", "g": "a1", "h": "a0"}, (a2, a1, a0)),
        "mdpi": ({"f": "a0"}, (zero, zero, -a0)),
        "exam2": ({"lam1": "a1"}, (zero, a1, zero)),
    }[family]
    accel = odeint.FAMILIES[family][1](**{n: _Coeff(c) for n, c in leaves.items()})
    num, den = _quotient(accel, {"v": w})
    weights = (4, -4 * h, -2 * g, 2 * f, 0, 0, -2 * g, -f)
    fields = [[Polynomial(_COORDS, {e + (0,) * 5: c for e, c in p.terms.items()})
               for p in X.components] for X in builtin_fields("sl3-family")]
    printed = [sum((c * X[k] for c, X in zip(weights, fields)), zero) for k in (0, 1)]
    return 4 * w * den - printed[0] * den, 4 * num - printed[1] * den


class TestCubicRow:
    """The one cubic row that mdpi, exam2 and general compile from is the
    t-dependent combination of X1..X8 the paper prints, read exactly."""

    @pytest.mark.parametrize("family", ["general", "mdpi", "exam2"])
    def test_each_name_is_the_printed_combination(self, family):
        assert [str(r) for r in _cubic_residuals(family)] == ["0", "0"]

    def test_negative_control_changed_term(self, monkeypatch):
        # g x read as g v must leave the dv/dt residual 4 g (x - w) for the
        # two names with a g term; mdpi's g is 0, so its row leaves the
        # changed term out and still reads as the combination
        X, V = odeint.X, odeint.V

        def changed(f, g, h):
            base = Const(-3) * X * V - X**3
            return _sub(_sub(_sub(base, _mul(f, V + X**2)), _mul(g, V)), h)

        monkeypatch.setattr(odeint, "_cubic", changed)
        defaults, _ = odeint.FAMILIES["general"]
        monkeypatch.setitem(odeint.FAMILIES, "general", (defaults, changed))
        for family, residual in (("general", "4*x*a1 - 4*w*a1"),
                                 ("exam2", "4*x*a1 - 4*w*a1"), ("mdpi", "0")):
            x_res, v_res = _cubic_residuals(family)
            assert (str(x_res), str(v_res)) == ("0", residual)
        # the lifts run the same changed row: F(0, 1, 0) = -1, not -2
        for family, given in (("general", {"g": "1"}), ("exam2", {"lam1": "1"})):
            assert lift_sode(family, given).rhs(0.0, 1.0, 0.0) == -1.0


class TestSuperposeRiccati:
    def test_round_trip(self):
        sys = lift()
        c = RiccatiCoeffs(sys.coeffs["a3"])
        g = grid(81)
        ics = sample_generic_ics(21, 5)
        trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in ics]
        result = superpose_riccati(c, trajs[:4], target=trajs[4].states[0])
        err = max(
            max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for a, b in zip(result.trajectory.states, trajs[4].states)
        )
        assert err < 1e-6

    def test_a3_one_bit_matches_time_independent_path(self):
        sys = lift_sode("riccati", {"a0": "0", "a1": "0", "a2": "0", "a3": "1"})
        c = RiccatiCoeffs(sys.coeffs["a3"])
        g = [i / 60 for i in range(61)]
        ics = sample_generic_ics(33, 5)
        trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in ics]
        via_riccati = superpose_riccati(c, trajs[:4], target=trajs[4].states[0])
        direct = reconstruct(
            SuperposeProblem(trajs[:4], target=trajs[4].states[0])
        )
        assert via_riccati.trajectory.states == direct.trajectory.states
        assert via_riccati.lam1 == direct.lam1
        assert via_riccati.lam2 == direct.lam2

    def test_one_beta_per_grid_time_same_bits(self, monkeypatch):
        sys = lift()
        c = RiccatiCoeffs(sys.coeffs["a3"])
        g = grid(41)
        ics = sample_generic_ics(21, 5)
        trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in ics]
        target = trajs[4].states[0]
        # the state-by-state path: four transforms and one inverse per time
        moved = [
            Trajectory(list(g), [transform_state(c, t, s)
                                 for t, s in zip(g, tr.states)], tol=tr.tol)
            for tr in trajs[:4]
        ]
        rec = reconstruct(SuperposeProblem(
            moved, target=transform_state(c, 0.0, target)))
        expected = [untransform_state(c, t, s)
                    for t, s in zip(g, rec.trajectory.states)]

        calls = []
        beta = RiccatiCoeffs.beta

        def counting_beta(self, t):
            calls.append(t)
            return beta(self, t)

        monkeypatch.setattr(RiccatiCoeffs, "beta", counting_beta)
        result = superpose_riccati(c, trajs[:4], target=target)
        assert result.trajectory.states == expected
        assert (result.lam1, result.lam2) == (rec.lam1, rec.lam2)
        assert calls == list(g)  # one per grid time; the fit reuses the row

    def test_grid_mismatch_before_domain_error(self):
        # a3 = 1 - t^2/4 is positive on the interval but zero at t = 2 and
        # negative beyond, on the trajectories' longer grid
        c = build_riccati("0", "0", "0", "1 - t^2/4", interval=(0.0, 1.0))
        g = [0.5 * i for i in range(7)]
        trajs = [Trajectory(list(g), [(0.1 * k, 0.2)] * len(g)) for k in range(4)]
        with pytest.raises(DomainError) as exc:
            superpose_riccati(c, trajs, constants=(0.3, 0.7))
        assert exc.value.t == 2.0
        trajs[3] = Trajectory(g[:-1], [(0.3, 0.2)] * (len(g) - 1))
        with pytest.raises(ValueError, match="share one time grid"):
            superpose_riccati(c, trajs, constants=(0.3, 0.7))
