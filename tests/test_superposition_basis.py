"""The superposition basis and its one-entry memo against the per-point rule.

``reconstruct`` and ``superpose_riccati`` evaluate a basis built once per set
of four trajectories.  Every output must be the one the per-point formula of
``tests/reference.py`` gives, bit for bit: states, lam1, lam2,
min_denominator, and the which / value / t of a Degenerate.  A memo hit must
return exactly what a fresh build does.
"""

import operator
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesuper import superpose
from liesuper.cli import main
from liesuper.odeint import Trajectory, integrate, lift_sode
from liesuper.riccati import RiccatiCoeffs, build_riccati, superpose_riccati
from liesuper.superpose import (
    Degenerate,
    SuperposeProblem,
    SuperpositionBasis,
    reconstruct,
)

from conftest import sample_generic_ics
from reference import reconstruct_reference, superpose_riccati_reference

coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
constant = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
EPS_CHOICES = (1e-10, 1e-6, 0.0, 0.5)
RICCATI_SYS = lift_sode("riccati", {"a0": "0.1*cos(t)", "a1": "0.2", "a2": "0.1*sin(t)",
                                    "a3": "(1 + 0.1*sin(t))^2"}, interval=(0.0, 0.8))
RICCATI = RiccatiCoeffs(RICCATI_SYS.coeffs["a3"])


def bits(x):
    """A float's exact bits (sign of zero included), or the value otherwise."""
    return x.hex() if isinstance(x, float) else repr(x)


def outcome(fn):
    """Everything a reconstruction returns or raises, bit for bit."""
    try:
        r = fn()
    except Degenerate as exc:
        return ("Degenerate", exc.which, bits(exc.value), bits(exc.t), str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))
    tr = r.trajectory
    return (
        [bits(t) for t in tr.times],
        [(bits(x), bits(v)) for x, v in tr.states],
        bits(r.lam1), bits(r.lam2), bits(r.min_denominator),
        bits(tr.tol),
    )


@st.composite
def slot_sets(draw, t1=1.0):
    """Four trajectories on one grid: generic, a slot close to another, or a
    state shared by two slots at one time."""
    n = draw(st.integers(1, 6))
    times = [t1 * i / 6 for i in range(n)]
    slots = [[(draw(coord), draw(coord)) for _ in range(n)] for _ in range(4)]
    mode = draw(st.sampled_from(["generic", "near", "row"]))
    j, k = draw(st.sampled_from([(a, b) for a in range(4) for b in range(4) if a != b]))
    if mode == "near":
        d = draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-8]))
        slots[k] = [(x + d, v - d) for x, v in slots[j]]
    elif mode == "row":
        i = draw(st.integers(0, n - 1))
        slots[k][i] = slots[j][i]
    # tuple times and rows, as integrate gives them, so the memo keeps a basis
    return [Trajectory(tuple(times), tuple(s), tol=1e-9) for s in slots]


@st.composite
def fits(draw, times):
    """Keyword arguments of one reconstruction: constants, or a target."""
    kw = {"eps_gen": draw(st.sampled_from(EPS_CHOICES))}
    if draw(st.booleans()):
        kw["constants"] = (draw(constant), draw(constant))
    else:
        kw["target"] = (draw(coord), draw(coord))
        kw["fit_time"] = draw(st.sampled_from([None, *times, 0.123]))
    return kw


def fresh_then_hit(fn, trajs, c=None):
    """outcome(fn) on a fresh build from an empty memo, then on a memo hit.

    Whenever the first call built a basis, the memo must have kept it under
    the four trajectories and ``c``, and the second call must reuse it."""
    superpose._last_basis = ((), None)
    fresh = outcome(fn)
    key, built = superpose._last_basis
    assert built is not None or fresh[0] == "ValueError"
    if built is not None:
        assert all(map(operator.is_, key, (*trajs, c)))
    hit = outcome(fn)
    assert superpose._last_basis[1] is built  # nothing was rebuilt
    return fresh, hit


class TestBasisMatchesPerPointRule:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_reconstruct_bit_for_bit(self, data):
        trajs = data.draw(slot_sets())
        kw = data.draw(fits(trajs[0].times))
        want = outcome(lambda: reconstruct_reference(SuperposeProblem(trajs, **kw)))
        # a fresh build, then a memo hit on the same objects
        fresh, hit = fresh_then_hit(
            lambda: reconstruct(SuperposeProblem(trajs, **kw)), trajs)
        assert fresh == want
        assert hit == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_riccati_bit_for_bit(self, data):
        trajs = data.draw(slot_sets(t1=0.8))
        kw = data.draw(fits(trajs[0].times))
        want = outcome(lambda: superpose_riccati_reference(RICCATI, trajs, **kw))
        fresh, hit = fresh_then_hit(
            lambda: superpose_riccati(RICCATI, trajs, **kw), trajs, RICCATI)
        assert fresh == want
        assert hit == want

    def test_duplicated_slot_raises_at_the_same_time(self):
        sys = lift_sode("mdpi")
        g = [i / 20 for i in range(21)]
        trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in sample_generic_ics(9)]
        dup = [trajs[0], trajs[0], trajs[2], trajs[3]]
        for constants in ((0.3, 0.7), (-1.2, 0.4), (0.0, 0.0)):
            problem = SuperposeProblem(dup, constants=constants)
            got = outcome(lambda: reconstruct(problem))
            assert got[0] == "Degenerate"
            assert got == outcome(lambda: reconstruct_reference(problem))


def family(n=101, seed=21, riccati=False):
    sys = RICCATI_SYS if riccati else lift_sode(
        "general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"})
    t1 = 0.8 if riccati else 1.0
    g = [t1 * i / (n - 1) for i in range(n)]
    return [integrate(sys, ic, 0.0, g, 1e-10) for ic in sample_generic_ics(seed)]


@pytest.fixture
def builds(monkeypatch):
    """Count basis builds; start from an empty memo."""
    calls = []
    init = SuperpositionBasis.__init__

    def counting(self, times, slot_rows):
        calls.append(len(times))
        init(self, times, slot_rows)

    monkeypatch.setattr(SuperpositionBasis, "__init__", counting)
    monkeypatch.setattr(superpose, "_last_basis", ((), None))
    return calls


def calls16(run):
    """Twelve solutions from constants and four fitted to targets."""
    results = [run(constants=(0.1 * k - 0.5, 0.3 + 0.05 * k)) for k in range(12)]
    results += [run(target=(0.05 * k, 0.3 - 0.1 * k)) for k in range(4)]
    return results


class TestMemo:
    def test_sixteen_calls_build_once(self, builds):
        trajs = family()
        got = calls16(lambda **kw: reconstruct(SuperposeProblem(trajs, **kw)))
        assert builds == [101]
        want = calls16(lambda **kw: reconstruct_reference(SuperposeProblem(trajs, **kw)))
        assert [outcome(lambda: r) for r in got] == [outcome(lambda: r) for r in want]

    def test_sixteen_riccati_calls_build_once(self, builds):
        trajs = family(riccati=True)
        got = calls16(lambda **kw: superpose_riccati(RICCATI, trajs, **kw))
        assert builds == [101]
        want = calls16(lambda **kw: superpose_riccati_reference(RICCATI, trajs, **kw))
        assert [outcome(lambda: r) for r in got] == [outcome(lambda: r) for r in want]

    def test_hit_equals_fresh_build(self, builds, monkeypatch):
        trajs = family()
        run = lambda: outcome(lambda: reconstruct(
            SuperposeProblem(trajs, target=(0.05, 0.3))))
        miss, hit = run(), run()
        monkeypatch.setattr(superpose, "_last_basis", ((), None))
        assert miss == hit == run()
        assert builds == [101, 101]

    @pytest.mark.parametrize("change", ["value", "sign of zero", "int", "append"])
    def test_changed_rows_rebuild(self, builds, change):
        trajs = family(n=21)
        rows = list(trajs[2].states)
        rows[7] = (0.0, rows[7][1])
        trajs[2] = replace(trajs[2], states=tuple(rows))
        run = lambda: outcome(lambda: reconstruct(
            SuperposeProblem(trajs, constants=(0.4, -0.3))))
        before = run()
        x, v = rows[7]
        if change == "value":
            rows[7] = (x + 1e-3, v)
        elif change == "sign of zero":
            rows[7] = (-0.0, v)
        elif change == "int":
            rows[7] = (0, v)
        if change == "append":
            trajs = [replace(tr, times=(*tr.times, 1.05),
                             states=(*tr.states, tr.states[-1])) for tr in trajs]
        else:
            trajs[2] = replace(trajs[2], states=tuple(rows))
        after = run()
        assert builds == [21, len(trajs[0].times)]
        assert after == outcome(lambda: reconstruct_reference(
            SuperposeProblem(trajs, constants=(0.4, -0.3))))
        if change in ("value", "append"):
            assert after != before

    def test_list_rows_are_never_reused(self, builds):
        for kind in ("list times", "list rows", "list of list rows",
                     "tuple of list rows"):
            times = [i / 20 for i in range(21)]  # one list, shared by all four
            trajs = family(n=21)
            if kind == "list times":
                trajs = [Trajectory(times, tr.states) for tr in trajs]
            elif kind == "list rows":
                trajs = [Trajectory(tr.times, list(tr.states)) for tr in trajs]
            elif kind == "list of list rows":
                trajs = [Trajectory(tr.times, [list(s) for s in tr.states])
                         for tr in trajs]
            else:
                trajs = [Trajectory(tr.times, tuple(list(s) for s in tr.states))
                         for tr in trajs]
            run = lambda: outcome(lambda: reconstruct(
                SuperposeProblem(trajs, constants=(0.4, -0.3))))
            run()
            if kind == "list times":
                times[-1] = 1.05  # every trajectory's last time, in place
            elif kind == "list rows":
                x, v = trajs[1].states[3]
                trajs[1].states[3] = (x + 1e-3, v)
            else:
                trajs[1].states[3][0] += 1e-3  # mutated inside the row
            assert run() == outcome(lambda: reconstruct_reference(
                SuperposeProblem(trajs, constants=(0.4, -0.3)))), kind
            assert builds == [21, 21], kind
            builds.clear()

    def test_integrated_and_list_backed_on_one_grid(self, builds):
        trajs = family(n=21)
        mixed = [trajs[0], *(Trajectory(list(tr.times), list(tr.states),
                                        tol=tr.tol) for tr in trajs[1:])]
        for kw in ({"constants": (0.4, -0.3)}, {"target": (0.05, 0.3)}):
            problem = SuperposeProblem(mixed, **kw)
            assert outcome(lambda: reconstruct(problem)) \
                == outcome(lambda: reconstruct_reference(problem))
        assert builds == [21, 21]  # list-backed: never kept
        moved = list(mixed[3].times)
        moved[5] += 1e-3
        with pytest.raises(ValueError, match="one time grid"):
            SuperposeProblem([*mixed[:3], replace(mixed[3], times=moved)],
                             constants=(0.4, -0.3))

    def test_other_riccati_coefficients_rebuild(self, builds):
        trajs = family(n=41, riccati=True)
        other = build_riccati("0.1*cos(t)", "0.2", "0.1*sin(t)", "1 + 0.3*t^2",
                              interval=(0.0, 0.8))
        first = outcome(lambda: superpose_riccati(RICCATI, trajs, constants=(0.3, 0.6)))
        second = outcome(lambda: superpose_riccati(other, trajs, constants=(0.3, 0.6)))
        assert second == outcome(lambda: superpose_riccati_reference(
            other, trajs, constants=(0.3, 0.6)))
        assert second != first
        assert builds == [41, 41]

    def test_equal_valued_copies_same_bits(self, tmp_path):
        trajs = family(n=41)
        copies = []
        for j, tr in enumerate(trajs):  # new float objects, equal values
            tr.to_csv(tmp_path / f"p{j}.csv")
            copies.append(replace(Trajectory.from_csv(tmp_path / f"p{j}.csv"),
                                  tol=tr.tol))
        assert copies[0].states == list(trajs[0].states)
        assert copies[0].states[5] is not trajs[0].states[5]
        for kw in ({"constants": (0.3, 0.6)}, {"target": (0.05, 0.3)}):
            assert outcome(lambda: reconstruct(SuperposeProblem(copies, **kw))) \
                == outcome(lambda: reconstruct(SuperposeProblem(trajs, **kw)))


class TestCheckedGrid:
    """A result skips the monotonicity walk only on a tuple grid; a list
    grid may have changed since its check and is walked again."""

    @pytest.mark.parametrize("c", [None, RICCATI])
    def test_list_times_changed_after_construction(self, c):
        times = [0.8 * i / 20 for i in range(21)]  # one list, shared by all four
        trajs = [Trajectory(times, tr.states) for tr in family(n=21, riccati=True)]
        times[5] = times[4]
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            if c is None:
                reconstruct(SuperposeProblem(trajs, constants=(0.4, -0.3)))
            else:
                superpose_riccati(c, trajs, constants=(0.4, -0.3))

    @pytest.mark.parametrize("c", [None, RICCATI])
    def test_result_equals_a_validated_trajectory(self, c):
        trajs = family(n=21, riccati=True)
        result = (superpose_riccati(c, trajs, target=(0.05, 0.3)) if c else
                  reconstruct(SuperposeProblem(trajs, target=(0.05, 0.3)))).trajectory
        assert type(result.times) is list and result.times == list(trajs[0].times)
        assert result == Trajectory(list(trajs[0].times), result.states,
                                    tol=trajs[0].tol)

    def test_a3_one_with_signed_zero_velocities(self):
        # every sign pattern of zero velocities in slots 1..3 over 8 times;
        # at lam1 = -0.0 the last v0 is -0.0, kept through v / 1.0 and v * 1.0
        c = RiccatiCoeffs(lift_sode("riccati").coeffs["a3"])
        times = tuple(i / 10 for i in range(8))
        trajs = [Trajectory(times, tuple((x + 0.01 * i * j, (0.0, -0.0)[(i >> j) % 2])
                                         for i in range(8)))
                 for j, x in enumerate((0.1, 0.3, -0.2, 0.25))]
        for kw in ({"constants": (-0.0, 0.0)}, {"constants": (0.0, -0.0)},
                   {"constants": (0.4, -0.3)}, {"target": (0.05, -0.0)}):
            got = outcome(lambda: superpose_riccati(c, trajs, **kw))
            assert got == outcome(lambda: reconstruct(SuperposeProblem(trajs, **kw)))
        assert outcome(lambda: superpose_riccati(c, trajs, constants=(-0.0, 0.0)))[1][-1] \
            == (bits(0.37), bits(-0.0))


class TestDegenerateMessage:
    def test_fraction_value(self):
        exc = Degenerate("F421*F310", Fraction(1, 3), t=Fraction(1, 2))
        assert str(exc) == "degenerate configuration: F421*F310 = 3.333e-01 at t=1/2"
        assert exc.value == Fraction(1, 3)

    def test_float_message_unchanged(self):
        exc = Degenerate("v0-denominator", -2.5e-12, t=0.25)
        assert str(exc) == "degenerate configuration: v0-denominator = -2.500e-12 at t=0.25"

    def test_cli_reports_fraction_value(self, tmp_path, capsys, monkeypatch):
        import json

        from liesuper import cli

        def degenerate(problem):
            raise Degenerate("superposition denominator", Fraction(-1, 8), 0.5)

        monkeypatch.setattr(cli, "reconstruct", degenerate)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "family": "mdpi", "interval": [0, 1], "points": 3,
            "initial_conditions": [[0.1, 0.2], [0.3, 0.1], [0.3, -0.1], [-0.2, 0.4]],
            "constants": [0.3, 0.7]}))
        assert main(["superpose", "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err == ("error: degenerate configuration (superposition denominator"
                       " = -1.250e-01) at t = 0.5\n")
