"""Integrator, family lifts, CSV round-trip, and the residual oracle."""

import dataclasses
import io
import math
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from liesuper import odeint
from liesuper.coeffexpr import Const, DomainError, parse_expr
from liesuper.odeint import (
    BlowUp,
    ConstraintViolation,
    GridTooCoarse,
    NonFinite,
    StepBudgetExceeded,
    Trajectory,
    integrate,
    lift_sode,
    residual,
    riccati_damping,
)
from liesuper.riccati import RiccatiCoeffs, transform_state
from liesuper.superpose import lambda_integrals
from conftest import sample_generic_ics
from reference import (CUBIC_ROWS, dopri5_dense_reference, dopri5_reference,
                       from_csv_reference, residual_reference,
                       write_csv_reference)


def grid(t0, t1, n):
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]


class TestLift:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            lift_sode("nope")

    def test_mdpi_rhs(self):
        # rhs gives the acceleration alone; x' = v is the integrator's
        sys = lift_sode("mdpi", {"f": "sin(t)"})
        dv = sys.rhs(0.5, 2.0, -1.0)
        assert type(dv) is float
        assert dv == pytest.approx(-3 * 2 * (-1) - 8 + math.sin(0.5))

    def test_general_rhs(self):
        sys = lift_sode("general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"})
        t, x, v = 0.7, 0.3, -0.2
        dv = sys.rhs(t, x, v)
        expected = (
            -3 * x * v - x**3
            - math.sin(t) * (v + x**2)
            - math.cos(t) * x
            - 0.1
        )
        assert dv == pytest.approx(expected, rel=1e-15)

    def test_riccati_constraints(self):
        with pytest.raises(ConstraintViolation):
            lift_sode("riccati", {"a3": "2"})
        with pytest.raises(ConstraintViolation):
            lift_sode("riccati", {"a3": "1 - 2*t"}, interval=(0.0, 1.0))

    def test_riccati_damping_a3_one(self):
        b0, b1 = riccati_damping(Const(0), Const(1))
        for t in (0.0, 0.5, 1.0):
            assert b0.eval(t) == 0.0
            assert b1.eval(t) == 3.0

    def test_riccati_reduces_to_autonomous(self):
        # a0=a1=a2=0, a3=1 gives exactly xddot + 3x xdot + x^3 = 0
        ric = lift_sode("riccati", {"a3": 1})
        aut = lift_sode("mdpi")
        for t, x, v in [(0.0, 0.4, -0.3), (1.3, -1.2, 2.0)]:
            assert ric.rhs(t, x, v) == pytest.approx(aut.rhs(t, x, v), rel=1e-15)

    def test_riccati_rhs_reads_a3_after_x_squared(self):
        # with b0 and b1 free of a3, the formula's order shows: x**2 overflows
        # before a failing a3 is read, but after a failing b0 is
        zero, bad = Const(0), parse_expr("1/(t - t)")
        a3_fails = odeint._system("riccati", dict(a0=zero, a1=zero, a2=zero, a3=bad,
                                                  b0=zero, b1=zero))
        with pytest.raises(OverflowError):
            a3_fails.rhs(0.5, 1e200, 0.0)
        with pytest.raises(NonFinite):
            integrate(a3_fails, (1e200, 0.0), 0.0, [0.0, 1.0], 1e-8)
        with pytest.raises(DomainError) as exc:
            a3_fails.rhs(0.5, 1.0, 0.0)
        assert exc.value.node is bad
        b0_fails = odeint._system("riccati", dict(a0=zero, a1=zero, a2=zero,
                                                  a3=Const(1), b0=bad, b1=zero))
        with pytest.raises(DomainError) as exc:
            b0_fails.rhs(0.5, 1e200, 0.0)
        assert exc.value.node is bad and exc.value.t == 0.5

    def test_unknown_coefficient_names_the_allowed_ones(self):
        with pytest.raises(ValueError, match="no coefficient 'lam'; .* are lam1$"):
            lift_sode("exam2", {"lam": "5"})
        # b0 is derived from a2 and a3: setting it is refused, not ignored
        with pytest.raises(ValueError, match="'b0'; .* are a0, a1, a2, a3$"):
            lift_sode("riccati", {"b0": "5"})

    @pytest.mark.parametrize("family,name,first_at_huge_x", [
        ("mdpi", "f", OverflowError),  # x**3 is read before f
        ("exam2", "lam1", OverflowError),
        ("general", "f", OverflowError),
        ("general", "h", OverflowError),
        ("riccati", "a0", DomainError),  # a0, a1, a2 are read before x**2
        ("riccati", "a2", DomainError),
    ])
    def test_failing_coefficient_names_its_own_node(self, family, name,
                                                    first_at_huge_x):
        # the coefficient trees sit inside the acceleration's tree: a failure
        # names the coefficient's node and the stage's t, in the formula's order
        sys = lift_sode(family, {name: "1/(t - 1/2)"})
        with pytest.raises(DomainError) as exc:
            sys.rhs(0.5, 1.0, 0.0)
        assert (exc.value.node, exc.value.t) == (sys.coeffs[name], 0.5)
        assert exc.value.reason == "division by zero"
        with pytest.raises(first_at_huge_x):
            sys.rhs(0.5, 1e200, 0.0)
        assert math.isfinite(sys.rhs(0.25, 1.0, 0.0))


class TestIntegrate:
    def test_against_closed_form(self):
        # x = 1/(1+t) solves xddot + 3x xdot + x^3 = 0 with x(0)=1, v(0)=-1
        sys = lift_sode("mdpi")
        g = grid(0.0, 1.0, 201)
        traj = integrate(sys, (1.0, -1.0), 0.0, g, 1e-10)
        err = max(
            abs(x - 1 / (1 + t)) for t, x in zip(traj.times, traj.x)
        )
        assert err < 1e-8

    def test_tolerance_convergence(self):
        sys = lift_sode("mdpi")
        g = grid(0.0, 1.0, 11)
        errs = []
        for tol in (1e-6, 1e-9, 1e-12):
            traj = integrate(sys, (1.0, -1.0), 0.0, g, tol)
            errs.append(abs(traj.x[-1] - 0.5))
        assert errs[2] < errs[0]
        assert errs[2] < 1e-11

    def test_deterministic(self):
        sys = lift_sode("general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"})
        g = grid(0.0, 1.0, 51)
        a = integrate(sys, (0.2, -0.1), 0.0, g, 1e-10)
        b = integrate(sys, (0.2, -0.1), 0.0, g, 1e-10)
        assert a.states == b.states  # bit-for-bit

    def test_blow_up_reports_time(self):
        sys = lift_sode("mdpi")
        with pytest.raises(BlowUp) as exc:
            integrate(sys, (-5.0, -40.0), 0.0, grid(0.0, 1.0, 11), 1e-10)
        assert 0.0 < exc.value.t_star < 1.0

    def test_step_budget_beyond_one_step_per_interval(self, monkeypatch):
        sys, g = lift_sode("mdpi"), grid(0.0, 1.0, 11)
        steps = integrate(sys, (1.0, -1.0), 0.0, g, 1e-8).steps
        monkeypatch.setattr(odeint, "STEP_BUDGET", steps - 10)
        assert integrate(sys, (1.0, -1.0), 0.0, g, 1e-8).steps == steps
        monkeypatch.setattr(odeint, "STEP_BUDGET", steps - 11)
        with pytest.raises(StepBudgetExceeded) as exc:
            integrate(sys, (1.0, -1.0), 0.0, g, 1e-8)
        assert exc.value.budget == steps - 1 and 0.0 < exc.value.t < 1.0

    def test_grid_validation(self):
        sys = lift_sode("mdpi")
        with pytest.raises(ValueError):
            integrate(sys, (1.0, -1.0), 0.0, [0.5, 1.0], 1e-10)
        with pytest.raises(ValueError):
            integrate(sys, (1.0, -1.0), 0.0, [0.0, 0.0, 1.0], 1e-10)
        with pytest.raises(ValueError):
            integrate(sys, (1.0, -1.0), 0.0, grid(0.0, 1.0, 5), -1e-10)
        with pytest.raises(ValueError):
            integrate(sys, (1.0, -1.0), 0.0, grid(0.0, 1.0, 5), math.inf)


FAMILY_COEFFS = {
    "mdpi": [{"f": "0"}, {"f": "0.4*sin(2*t) - 1/10"}],
    "exam2": [{"lam1": "1"}, {"lam1": "1/2 + t"}],
    "general": [{"f": "sin(t)", "g": "cos(t)", "h": "0.1"}, {"f": "t", "g": "-2", "h": "exp(-t)"}],
    "riccati": [{"a3": "1"}, {"a0": "cos(t)", "a1": "0.3", "a2": "sin(t)/2", "a3": "1 + t^2/4"}],
}


def _outcome(integrator, sys, ic, g, tol):
    """Result or exception of one run, plus the arguments of every rhs call.

    The reference loop repeats at stage 0 the point of the previous step's
    last stage (or of the rejected attempt's stage 0), so those calls are
    dropped from its record before comparing.
    """
    calls = []
    plain = sys.rhs

    def rhs(t, x, v):
        calls.append((t.hex(), x.hex(), v.hex()))
        return plain(t, x, v)

    traced = dataclasses.replace(sys, rhs=rhs)
    try:
        traj = integrator(traced, ic, g[0], g, tol)
        result = (traj.steps, [(x.hex(), v.hex()) for x, v in traj.states])
    except BlowUp as exc:
        result = ("BlowUp", exc.t_star.hex())
    except NonFinite as exc:
        result = ("NonFinite", exc.t.hex())
    if integrator is dopri5_reference:
        calls = calls[:1] + [c for i, c in enumerate(calls) if i % 7]
    return result, calls


class TestAgainstReference:
    """The FSAL integrator against the seven-stage loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILY_COEFFS)),
        st.integers(0, 1),
        st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        st.floats(-12, -3),
        st.floats(0.05, 3.0),
        st.integers(2, 25),
    )
    def test_states_steps_and_rhs_calls_bit_for_bit(
        self, family, which, ic, log_tol, t1, n
    ):
        sys = lift_sode(family, FAMILY_COEFFS[family][which], interval=(0.0, t1))
        g = grid(0.0, t1, n)
        g[-1] = t1
        tol = 10.0**log_tol
        assert _outcome(integrate, sys, ic, g, tol) == _outcome(
            dopri5_reference, sys, ic, g, tol
        )

    @pytest.mark.parametrize("family", ["mdpi", "exam2"])
    @pytest.mark.parametrize("ic", [(-0.0, -0.0), (0.0, -0.0), (-0.0, 1.0)])
    def test_signed_zero_initial_state(self, family, ic):
        sys = lift_sode(family)
        g = grid(0.0, 1.0, 6)
        assert _outcome(integrate, sys, ic, g, 1e-8) == _outcome(
            dopri5_reference, sys, ic, g, 1e-8
        )

    @staticmethod
    def _counting(sys):
        """``sys`` with an rhs that records the time of every call."""
        times = []
        plain = sys.rhs

        def rhs(t, x, v):
            times.append(t)
            return plain(t, x, v)

        return dataclasses.replace(sys, rhs=rhs), times

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILY_COEFFS)),
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        st.floats(-10, -3),
        st.integers(2, 12),
        st.booleans(),
    )
    def test_six_rhs_calls_per_attempted_step_plus_one(self, family, ic, log_tol,
                                                       n, dense):
        sys, times = self._counting(lift_sode(family, FAMILY_COEFFS[family][1]))
        try:
            traj = integrate(sys, ic, 0.0, grid(0.0, 1.0, n), 10.0**log_tol,
                             dense)
        except BlowUp:
            reject()  # no step count to compare with
        assert len(times) == traj.rhs_calls == 6 * traj.steps + 1

    @pytest.mark.parametrize("t0", [0.5, 3.0])
    def test_local_time_from_t0(self, t0):
        # in local time the first grid time, (t0 + 2/100) - t0, is a few
        # ulps past the first step's end 2/100: that rest counts as reached
        # instead of asking for a step below the blow-up threshold
        sys = lift_sode("general", FAMILY_COEFFS["general"][1])
        g = grid(t0, t0 + 2.0, 101)
        assert g[1] - t0 > 2.0 / 100
        got = _outcome(integrate, sys, (0.3, -0.2), g, 1e-6)
        assert got == _outcome(dopri5_reference, sys, (0.3, -0.2), g, 1e-6)
        assert len(got[0][1]) == 101

    @pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("failure", ["inf", "overflow"])
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_failing_stage_is_named_by_its_time(self, stage, failure, t0):
        # from the time of one stage of the third step on, the rhs returns
        # inf, or raises OverflowError as float ** does: the run ends in
        # NonFinite at that stage's time, before any later stage runs
        sys = lift_sode("general", FAMILY_COEFFS["general"][1])
        g = grid(t0, t0 + 1.0, 6)
        counted, times = self._counting(sys)
        integrate(counted, (0.3, -0.2), t0, g, 1e-8)
        first = 1 + 6 * 2 + stage - 1  # after stage 0 and two steps
        threshold = times[first]
        assert max(times[:first]) < threshold
        plain = sys.rhs

        def rhs(t, x, v):
            if t < threshold:
                return plain(t, x, v)
            if failure == "overflow":
                raise OverflowError("math range error")
            return math.inf

        failing = dataclasses.replace(sys, rhs=rhs)
        got = _outcome(integrate, failing, (0.3, -0.2), g, 1e-8)
        assert got == _outcome(dopri5_reference, failing, (0.3, -0.2), g, 1e-8)
        assert got[0] == ("NonFinite", threshold.hex())
        assert len(got[1]) == first + 1

    @staticmethod
    def _failing_from_call(sys, n, failure):
        """``sys`` with an rhs that fails from its n-th call (0-based) on."""
        calls = []
        plain = sys.rhs

        def rhs(t, x, v):
            calls.append(t)
            if len(calls) <= n:
                return plain(t, x, v)
            if failure == "overflow":
                raise OverflowError("math range error")
            return math.inf

        return dataclasses.replace(sys, rhs=rhs)

    @pytest.mark.parametrize("failure", ["inf", "overflow"])
    def test_failing_first_call_is_named_by_t0(self, failure):
        sys = lift_sode("general", FAMILY_COEFFS["general"][1])
        g = grid(0.5, 1.5, 6)
        failing = self._failing_from_call(sys, 0, failure)
        got = _outcome(integrate, failing, (0.3, -0.2), g, 1e-8)
        failing = self._failing_from_call(sys, 0, failure)
        assert got == _outcome(dopri5_reference, failing, (0.3, -0.2), g, 1e-8)
        assert got[0] == ("NonFinite", (0.5).hex())
        assert len(got[1]) == 1

    @pytest.mark.parametrize("failure", ["inf", "overflow"])
    def test_failing_last_stage_is_named_by_its_time(self, failure):
        # stage 6 runs at the time of stage 5 (c5 = c6 = 1), so no time
        # threshold singles it out: it fails by its place among the calls,
        # the last of the third step (the reference makes seven a step)
        sys = lift_sode("general", FAMILY_COEFFS["general"][1])
        g = grid(0.0, 1.0, 6)
        counted, times = self._counting(sys)
        integrate(counted, (0.3, -0.2), 0.0, g, 1e-8)
        last = 1 + 6 * 2 + 6 - 1
        assert times[last] == times[last - 1]
        got = _outcome(integrate, self._failing_from_call(sys, last, failure),
                       (0.3, -0.2), g, 1e-8)
        assert got == _outcome(dopri5_reference,
                               self._failing_from_call(sys, 7 * 2 + 6, failure),
                               (0.3, -0.2), g, 1e-8)
        assert got[0] == ("NonFinite", times[last].hex())
        assert len(got[1]) == last + 1

    def test_overflowing_position_with_finite_stages(self):
        # with F = 0 every stage value is v or 0, all finite, but the
        # step's position x + h v passes the largest float
        sys = dataclasses.replace(lift_sode("mdpi"), rhs=lambda t, x, v: 0.0)
        g = grid(0.25, 1.25, 3)
        got = _outcome(integrate, sys, (1.79e308, 1e308), g, 1e-8)
        assert got == _outcome(dopri5_reference, sys, (1.79e308, 1e308), g, 1e-8)
        assert got[0] == ("NonFinite", (0.25).hex())
        assert len(got[1]) == 7

    def test_rejected_steps_reuse_the_first_stage(self):
        g = [0.0, 50.0]
        sys = lift_sode("mdpi")
        counted, times = self._counting(sys)
        traj = integrate(counted, (1.0, -1.0), 0.0, g, 1e-8)
        ref_sys, ref_times = self._counting(sys)
        ref = dopri5_reference(ref_sys, (1.0, -1.0), 0.0, g, 1e-8)
        # the reference starts every attempt with a stage at t itself, so a
        # rejected attempt repeats the start time of the one before it
        starts = ref_times[::7]
        rejected = sum(a == b for a, b in zip(starts, starts[1:]))
        assert rejected >= 1
        assert (traj.steps, traj.states) == (ref.steps, ref.states)
        assert len(times) == 6 * traj.steps + 1
        assert len(ref_times) == 7 * ref.steps


def _dense(sys, ic, t0, g, tol):
    return integrate(sys, ic, t0, g, tol, True)


def _dense_outcome(integrator, sys, ic, g, tol):
    """``_outcome`` of one dense run, the rejected count added; the
    reference's repeated stage 0 is dropped from its calls."""
    result, calls = _outcome(integrator, sys, ic, g, tol)
    if integrator is dopri5_dense_reference:
        calls = calls[:1] + [c for i, c in enumerate(calls) if i % 7]
    try:
        rejected = integrator(sys, ic, g[0], g, tol).rejected
    except (BlowUp, NonFinite):
        rejected = None
    return result, calls, rejected


RICCATI = {"a0": "cos(t)", "a1": "0.3", "a2": "sin(t)/2", "a3": "1 + t^2/4"}


_ROUNDED_D = pytest.mark.xfail(strict=True, reason=(
    "_hermite_fill rounds d = x1 - x0, so dense v is off by about ulp(x)/h "
    "(ROADMAP, smaller items)"))


class TestDenseOutput:
    """Steps sized by tol, grid times filled from the quintic Hermite
    interpolant, against the seven-stage loop with the same fill."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILY_COEFFS)),
        st.integers(0, 1),
        st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        st.floats(-12, -3),
        st.floats(0.05, 3.0),
        st.integers(2, 60),
    )
    def test_states_steps_and_rhs_calls_bit_for_bit(
        self, family, which, ic, log_tol, t1, n
    ):
        sys = lift_sode(family, FAMILY_COEFFS[family][which], interval=(0.0, t1))
        g = grid(0.0, t1, n)
        g[-1] = t1
        tol = 10.0**log_tol
        assert _dense_outcome(_dense, sys, ic, g, tol) == _dense_outcome(
            dopri5_dense_reference, sys, ic, g, tol
        )

    @pytest.mark.parametrize("family", sorted(FAMILY_COEFFS))
    def test_steps_and_last_state_do_not_depend_on_inner_grid_times(self, family):
        # the last grid time holds the final step's own state: the state a
        # grid of the two ends alone lands on, after the same steps
        sys = lift_sode(family, FAMILY_COEFFS[family][1])
        ends = integrate(sys, (0.3, -0.2), 0.0, [0.0, 1.0], 1e-9)
        for n in (3, 4, 1001):
            traj = _dense(sys, (0.3, -0.2), 0.0, grid(0.0, 1.0, n), 1e-9)
            assert traj.times[-1] == 1.0
            assert traj.states[-1] == ends.states[-1]
            assert (traj.steps, traj.rejected) == (ends.steps, ends.rejected)

    @pytest.mark.parametrize("dense", [False, True])
    def test_rejected_steps_counted(self, dense):
        sys, g = lift_sode("mdpi"), grid(0.0, 50.0, 11)
        traj = integrate(sys, (1.0, -1.0), 0.0, g, 1e-8, dense)
        ref = dopri5_reference(sys, (1.0, -1.0), 0.0, g, 1e-8, dense)
        assert traj.rejected == ref.rejected > 0
        assert (traj.steps, traj.states) == (ref.steps, ref.states)

    def test_two_points_is_grid_landing(self):
        sys = lift_sode("general", FAMILY_COEFFS["general"][1])
        for t1 in (0.1, 1.0, 3.0):
            a = integrate(sys, (0.3, -0.2), 0.0, [0.0, t1], 1e-10)
            b = _dense(sys, (0.3, -0.2), 0.0, [0.0, t1], 1e-10)
            assert (a.steps, a.states) == (b.steps, b.states)

    def test_one_step_spans_many_grid_times(self):
        # tol-bound: a handful of steps fill 1,001 grid times, and the
        # fill stays within reach of the tolerance
        sys = lift_sode("mdpi")
        g = grid(0.0, 1.0, 1001)
        traj = _dense(sys, (1.0, -1.0), 0.0, g, 1e-6)
        assert traj.steps < 20
        assert traj.states == dopri5_dense_reference(
            sys, (1.0, -1.0), 0.0, g, 1e-6).states
        assert max(abs(x - 1 / (1 + t)) + abs(v + 1 / (1 + t) ** 2)
                   for t, (x, v) in zip(g, traj.states)) < 1e-5

    @pytest.mark.parametrize("t1", [
        1.0, 1e-6,
        pytest.param(1e-8, marks=_ROUNDED_D), pytest.param(1e-12, marks=_ROUNDED_D),
    ])
    def test_short_window_velocity_near_grid_landing(self, t1):
        # largest |v| gap: 4.5e-11 on [0, 1], 7.6e-11 on [0, 1e-6], 1.9e-8 on
        # [0, 1e-8] and 2.0e-4 on [0, 1e-12]; x agrees to 2e-12 throughout
        sys = lift_sode("general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"},
                        interval=(0.0, t1))
        g, tol = grid(0.0, t1, 101), 1e-10
        dense = _dense(sys, (0.1, -0.2), 0.0, g, tol)
        landed = integrate(sys, (0.1, -0.2), 0.0, g, tol)
        assert max(abs(a[1] - b[1])
                   for a, b in zip(dense.states, landed.states)) <= 10 * tol

    def test_uneven_float_grid_at_1e14(self):
        sys = lift_sode("mdpi")
        g = grid(1e14, 1e14 + 1, 11)
        g[-1] = 1e14 + 1
        traj = _dense(sys, (1.0, -1.0), 1e14, g, 1e-10)
        assert traj.times == tuple(g) and len(traj.states) == 11
        assert traj.states == dopri5_dense_reference(
            sys, (1.0, -1.0), 1e14, g, 1e-10).states
        with pytest.raises(GridTooCoarse):
            residual(sys, traj)

    def test_blow_up_and_budget_as_grid_landing(self, monkeypatch):
        sys = lift_sode("mdpi")
        with pytest.raises(BlowUp) as exc:
            _dense(sys, (-5.0, -40.0), 0.0, grid(0.0, 1.0, 11), 1e-10)
        assert 0.0 < exc.value.t_star < 1.0
        # the budget is STEP_BUDGET beyond one step per grid interval here too
        g = grid(0.0, 1.0, 11)
        steps = _dense(sys, (1.0, -1.0), 0.0, g, 1e-8).steps
        monkeypatch.setattr(odeint, "STEP_BUDGET", steps - 10)
        assert _dense(sys, (1.0, -1.0), 0.0, g, 1e-8).steps == steps
        monkeypatch.setattr(odeint, "STEP_BUDGET", steps - 11)
        with pytest.raises(StepBudgetExceeded):
            _dense(sys, (1.0, -1.0), 0.0, g, 1e-8)

    @pytest.mark.parametrize("family,coeffs", [
        ("mdpi", FAMILY_COEFFS["mdpi"][1]),
        ("general", FAMILY_COEFFS["general"][0]),
        ("exam2", FAMILY_COEFFS["exam2"][1]),
        ("riccati", RICCATI),
    ])
    def test_grid_bound_run_passes_dop853_and_residual(self, family, coeffs):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        sys = lift_sode(family, coeffs)
        g, ic = grid(0.0, 1.0, 1001), (0.3, -0.2)
        traj = _dense(sys, ic, 0.0, g, 1e-10)
        assert traj.steps < 100  # not one step per grid interval
        ref = solve_ivp(lambda t, y: (y[1], sys.rhs(t, y[0], y[1])), (0.0, 1.0),
                        ic, method="DOP853", rtol=1e-13, atol=1e-13, t_eval=g)
        err = max(max(abs(x - rx), abs(v - rv)) for (x, v), rx, rv
                  in zip(traj.states, ref.y[0], ref.y[1]))
        assert err <= 1e-6
        assert residual(sys, traj) <= 1e-6

    @pytest.mark.parametrize("family,coeffs", [
        ("mdpi", FAMILY_COEFFS["mdpi"][1]),
        ("general", FAMILY_COEFFS["general"][0]),
        ("riccati", RICCATI),
    ])
    def test_lambda_drift_at_a_hundredth_of_tol(self, family, coeffs):
        # drift follows the global error, so it follows the step tolerance:
        # at the default tol 1e-10 the dense path's steps are about 30 times
        # longer than grid landing's 0.001, and five mdpi trajectories from
        # sample_generic_ics seeds 0-9 drifted up to 1.3e-8, past the 1e-8
        # bound.  So superpose's dense steps are sized at tol / 100, where
        # the same runs drift at most 2.3e-10.
        sys = lift_sode(family, coeffs)
        c = RiccatiCoeffs(sys.coeffs["a3"]) if family == "riccati" else None
        g = grid(0.0, 1.0, 1001)
        for seed in range(3):
            trajs = [_dense(sys, ic, 0.0, g, 1e-12)
                     for ic in sample_generic_ics(seed, 5)]
            lams = []
            for i in range(0, len(g), 10):
                states = [tr.states[i] for tr in trajs]
                if c:
                    states = [transform_state(c, g[i], s) for s in states]
                lams.append(lambda_integrals(states))
            assert max(max(abs(l1 - lams[0][0]), abs(l2 - lams[0][1]))
                       for l1, l2 in lams) <= 1e-8


# coefficients of the cubic rows: the literals 0, 1 and -1 as numbers and as
# text ("-1" and "-0" parse to the negation of a literal, which the row
# keeps), and trees of t; sqrt(1/2 - t) raises once a stage passes t = 1/2.
# A state entry is a signed zero, 1e200 (too large for the formula) or small
_CUBIC_COEFFS = st.sampled_from(
    [0, 1, -1, "0", "1", "-1", "-0", "2", "sin(t)", "t - 1/2", "sqrt(1/2 - t)"])
_SIGNED = st.sampled_from([0.0, -0.0, 1e200]) | st.floats(-2, 2)


def _row_outcome(sys, ic, g, tol, dense):
    """``_outcome`` of one run in either mode, or the DomainError it raised."""
    def run(sys, ic, t0, g, tol):
        return integrate(sys, ic, t0, g, tol, dense)

    try:
        return _outcome(run, sys, ic, g, tol)
    except DomainError as exc:
        return ("DomainError", exc.node, exc.reason, exc.t.hex())


class TestCubicRow:
    """mdpi, exam2 and general compile from one cubic row, which leaves out a
    term whose coefficient is the literal 0 and a factor that is the literal
    1; each name runs bit for bit as its tree in ``CUBIC_ROWS``, which
    writes every term."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(CUBIC_ROWS)),
        st.lists(_CUBIC_COEFFS, min_size=3, max_size=3),
        st.tuples(_SIGNED, _SIGNED),
        st.floats(-12, -3),
        st.floats(0.05, 3.0),
        st.integers(2, 25),
    )
    def test_each_name_runs_its_unfolded_tree_bit_for_bit(
        self, family, values, ic, log_tol, t1, n
    ):
        names = odeint.FAMILIES[family][0]
        sys = lift_sode(family, dict(zip(names, values)), interval=(0.0, t1))
        unfolded = dataclasses.replace(
            sys, rhs=CUBIC_ROWS[family](**sys.coeffs).compiled)
        g = grid(0.0, t1, n)
        g[-1] = t1
        tol = 10.0**log_tol
        for dense in (False, True):
            assert _row_outcome(sys, ic, g, tol, dense) == _row_outcome(
                unfolded, ic, g, tol, dense)


class TestTrajectory:
    def test_csv_round_trip_exact(self, tmp_path):
        sys = lift_sode("mdpi")
        traj = integrate(sys, (1.0, -1.0), 0.0, grid(0.0, 1.0, 21), 1e-10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert back.times == list(traj.times)  # %.17g round-trips doubles exactly
        assert back.states == list(traj.states)

    def test_integrated_trajectory_is_frozen(self):
        traj = integrate(lift_sode("mdpi"), (1.0, -1.0), 0.0, grid(0.0, 1.0, 11),
                         1e-10)
        assert type(traj.times) is type(traj.states) is tuple
        with pytest.raises(TypeError):
            traj.states[3] = (0.0, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.states = list(traj.states)

    @pytest.mark.parametrize("dense", [False, True])
    def test_integrated_equals_a_validated_trajectory(self, dense):
        # integrate skips the second walk over the grid it checked on entry
        traj = integrate(lift_sode("mdpi"), (1.0, -1.0), 0.0, grid(0.0, 50.0, 11),
                         1e-8, dense)
        assert traj.rejected > 0
        checked = Trajectory(traj.times, traj.states, tol=traj.tol, steps=traj.steps,
                             rejected=traj.rejected, rhs_calls=traj.rhs_calls)
        assert traj == checked and repr(traj) == repr(checked)
        assert vars(traj) == vars(checked)

    def test_from_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,pos,vel\n0,1,2\n")
        with pytest.raises(ValueError):
            Trajectory.from_csv(path)

    def test_monotone_times_required(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [(1.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="equal length"):
            Trajectory([0.0, 1.0], [(1.0, 0.0)])


# the pieces of a trajectory CSV that its reader treats differently
_PAD = st.sampled_from(["", "", " ", "\t", "  "])
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_BAD_FIELD = st.sampled_from(["nan", "-inf", "inf", "1e999", "", "abc", "0x1"])


@st.composite
def _csv_texts(draw):
    """The text of a trajectory CSV: mostly valid rows, with seeded faults."""
    n = draw(st.integers(0, 8))
    times = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n,
        unique=True)))
    if n > 1 and draw(st.integers(0, 4)) == 0:  # one time out of order
        i = draw(st.integers(1, n - 1))
        times[i] = times[i - 1] if draw(st.booleans()) else times[0] - 1
    rows = []
    for t in times:
        fields = [repr(t)] + [repr(draw(st.floats(allow_nan=False,
                                                  allow_infinity=False)))
                              for _ in range(2)]
        fault = draw(st.sampled_from([None] * 20 + [
            "bad", "short", "long", "trailing comma", "shift"]))
        if fault == "bad":
            fields[draw(st.integers(0, 2))] = draw(_BAD_FIELD)
        elif fault == "short":
            fields.pop()
        elif fault == "long":  # 4 or 7 values: a row and a bit, two and a bit
            fields += [repr(draw(st.floats(-1, 1)))] * draw(st.sampled_from([1, 4]))
        elif fault == "trailing comma":
            fields.append("")
        elif fault == "shift" and rows and rows[-1]:  # the last row's end here
            fields.insert(0, rows[-1].pop())
        rows.append(fields)
        if draw(st.integers(0, 5)) == 0:
            rows.append(None)  # a blank or whitespace-only line
    lines = [draw(_BLANK) if r is None
             else ",".join(draw(_PAD) + f + draw(_PAD) for f in r) for r in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline, newline + newline]))
    header = draw(st.sampled_from(["t,x,v"] * 16 + ["t,x,v ", "t,x", "x,t,v"]))
    return header + newline + newline.join(lines) + (end if lines else newline)


def _read_outcome(read, path):
    try:
        traj = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", repr((traj.times, traj.states))


class TestCsvLayer:
    """The bulk CSV reader and writer against the line loops they replace."""

    @settings(max_examples=300, deadline=None)
    @given(_csv_texts())
    def test_reader_matches_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert (_read_outcome(Trajectory.from_csv, path)
                == _read_outcome(from_csv_reference, path))

    @pytest.mark.parametrize("body", [
        "1,2\n3,4,5,6\n",  # the right number of values, misaligned
        "1,2,3,4,5,6,7\n8,9,10\n",
        "1,2,3,\n",
        "",
        "\n \n\t\n",
        "0,1,2\r\n\r\n1,3,4",
        " 0 , 1 ,2\n1, 3e-1 , -0.0 \n",
        "0,1,2\n0,1,2\n",
        "0,1,2\x0c\n1,2\u2028,3\r2,3,4\r\n\x1c\n",  # only \n, \r\n, \r end a line
    ])
    def test_reader_named_cases(self, tmp_path, body):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            fh.write("t,x,v\n" + body)
        assert (_read_outcome(Trajectory.from_csv, path)
                == _read_outcome(from_csv_reference, path))

    def test_writer_bytes_match_row_writer(self):
        rng = random.Random(20261019)
        values = [rng.uniform(-1e3, 1e3) for _ in range(60)]
        values += [rng.gauss(0, 1) * 10.0 ** rng.randint(-300, 300)
                   for _ in range(60)]
        values += [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1e16, 1e17, 2.0**53 + 2, 3.0,
                   -7.0, 1e22, 0.1, 1 / 3]
        times = sorted(set(values))
        states = [(rng.choice(values), rng.choice(values)) for _ in times]
        for traj in (Trajectory(times, states), Trajectory([], [])):
            fast, slow = io.StringIO(), io.StringIO()
            traj.write_csv(fast)
            write_csv_reference(traj, slow)
            assert fast.getvalue() == slow.getvalue()


class TestResidual:
    def test_small_on_true_solution(self):
        sys = lift_sode("mdpi")
        g = grid(0.0, 1.0, 201)
        exact = Trajectory(
            g, [(1 / (1 + t), -1 / (1 + t) ** 2) for t in g]
        )
        assert residual(sys, exact) < 1e-6

    def test_large_on_wrong_trajectory(self):
        sys = lift_sode("mdpi")
        g = grid(0.0, 1.0, 201)
        wrong = Trajectory(g, [(math.cos(3 * t), 0.0) for t in g])
        assert residual(sys, wrong) > 1.0

    def test_needs_enough_points(self):
        sys = lift_sode("mdpi")
        g = grid(0.0, 1.0, 5)
        traj = Trajectory(g, [(1 / (1 + t), 0.0) for t in g])
        with pytest.raises(GridTooCoarse):
            residual(sys, traj)

    @pytest.mark.parametrize("t1", [1e-300, 1e-160, 1e300])
    def test_needs_a_normal_step_square(self, t1):
        # 12*h*h underflows to 0 or a subnormal, or overflows, on these windows
        sys = lift_sode("mdpi")
        g = grid(0.0, t1, 11)
        traj = Trajectory(g, [(0.1, -0.2)] * 11)
        with pytest.raises(GridTooCoarse, match="not a positive normal float"):
            residual(sys, traj)

    def test_needs_uniform_grid(self):
        sys = lift_sode("mdpi")
        g = [0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0]
        traj = Trajectory(g, [(1 / (1 + t), 0.0) for t in g])
        with pytest.raises(GridTooCoarse):
            residual(sys, traj)


@pytest.mark.parametrize("family", sorted(FAMILY_COEFFS))
def test_residual_matches_indexed_loop(family):
    # bit for bit, on integrated trajectories and on one that is no solution
    sys = lift_sode(family, FAMILY_COEFFS[family][1])
    for n in (7, 8, 201, 1001):
        g = grid(0.0, 1.0, n)
        for traj in (integrate(sys, (0.3, -0.2), 0.0, g, 1e-10),
                     _dense(sys, (0.3, -0.2), 0.0, g, 1e-8),
                     Trajectory(g, [(math.cos(3 * t), 0.0) for t in g])):
            assert repr(residual(sys, traj)) == repr(residual_reference(sys, traj))
