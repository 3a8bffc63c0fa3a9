"""Acceptance suite: one check per headline capability, one printed line each.

Each test prints ``[PASS]``/``[FAIL] criterion N: ...`` with the measured
quantity and its pinned tolerance, then asserts.  Criterion 6a is expected to
fail and is marked strict-xfail: the classical four-solution family is
degenerate (F123 vanishes identically on it), so the superposition formula
evaluated over it provably cannot reproduce the two-parameter reference
general solution; the test states the criterion faithfully anyway, and the
strict marker turns any future "pass" into a loud suite failure.
"""

import random
import time

import pytest

from liesuper.algebra import (
    _structure_or_not_closed,
    builtin_fields,
    verify_isomorphism,
    verify_paper_table,
    verify_scheme,
)
from liesuper import odeint
from liesuper.coeffexpr import Const, Sqrt
from liesuper.exactpoly import prolong, rank_at
from liesuper.odeint import Trajectory, integrate, lift_sode, residual
from liesuper.riccati import RiccatiCoeffs, superpose_riccati, transformed_rhs_check
from liesuper.superpose import (
    Degenerate,
    SuperposeProblem,
    genericity_product,
    lambda_integrals,
    reconstruct,
    verify_lambda_annihilation,
)
from liesuper.worked_example import (
    reference_general_solution,
    superpose_over_example,
)

from conftest import sample_generic_ics


def report_line(num, desc, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(
        f"[{status}] criterion {num}: {desc} -- {detail} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_criterion_1_exact_bracket_table():
    report, elapsed = timed(verify_paper_table)
    ok = report.passed and len(report.records) == 28 and elapsed < 1.0
    report_line(
        1, "28 exact commutator relations of {X1..X8}", ok,
        f"{sum(r.status == 'PASS' for r in report.records)}/28 match, zero tolerance",
        elapsed, 1,
    )
    assert ok


def test_criterion_2_matrix_isomorphism():
    report, elapsed = timed(verify_isomorphism)
    pairs = [r for r in report.records if r.name.startswith("[M")]
    ok = report.passed and len(pairs) == 28 and elapsed < 1.0
    report_line(
        2, "structure constants of {M1..M8} equal those of {X1..X8}", ok,
        f"{sum(r.status == 'PASS' for r in pairs)}/28 pairs exact",
        elapsed, 1,
    )
    assert ok


def test_criterion_3_lambda_annihilation():
    report, elapsed = timed(verify_lambda_annihilation)
    ok = report.passed and elapsed < 1.0
    report_line(
        3, "X1^, X2^ annihilate Lambda1, Lambda2 exactly", ok,
        "all Lie-derivative numerators are the zero polynomial",
        elapsed, 1,
    )
    assert ok


def test_criterion_4_scheme_conditions():
    report, elapsed = timed(verify_scheme)
    ok = report.passed and elapsed < 1.0
    report_line(
        4, "[Y2,Y8]=0, 16-entry bracket table, ad_Y3^k(Y6) witnesses", ok,
        f"{len(report.records)} exact checks",
        elapsed, 1,
    )
    assert ok


def test_criterion_5_rank_genericity():
    start = time.perf_counter()
    from fractions import Fraction

    rng = random.Random(5)
    prolonged = [prolong(X, 4) for X in builtin_fields("sl3-family")]
    generic_ok = 0
    for _ in range(20):
        while True:
            pt = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                for _ in range(8)
            ]
            states = [(float(pt[a]), float(pt[4 + a])) for a in range(4)]
            if genericity_product(states) != 0:
                break
        if rank_at(prolonged, pt) == 8:
            generic_ok += 1
    # duplicated copy: copy 1 == copy 0
    dup_ok = 0
    for _ in range(5):
        pt = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(8)]
        pt[1], pt[5] = pt[0], pt[4]
        if rank_at(prolonged, pt) <= 6:
            dup_ok += 1
    elapsed = time.perf_counter() - start
    ok = generic_ok == 20 and dup_ok == 5 and elapsed < 5.0
    report_line(
        5, "rank 8 at generic rational points, <= 6 with a duplicated copy", ok,
        f"{generic_ok}/20 generic, {dup_ok}/5 duplicated",
        elapsed, 5,
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the classical four-solution family has F123 = 0 identically, so "
    "the formula evaluated over it is independent of the first constant and "
    "cannot match the two-parameter reference general solution",
)
def test_criterion_6a_worked_example_matches_reference():
    start = time.perf_counter()
    ts = [0.5, 0.875, 1.25, 1.625, 2.0]
    lams = [-1.0, -0.5, 0.25, 0.5, 1.0]
    samples = []
    for i in range(25):
        t, lam1, lam2 = ts[i % 5], lams[i // 5], lams[(2 * i + 1) % 5]
        den = (
            t * (lam2 - 1) + t**2 * lam1 * (lam2 - 1) + (lam1 - 1) * lam2
        )
        if abs(den) < 1e-3:  # stay off the singular locus
            lam2 = 0.9 * lam2 - 0.05
        samples.append((t, lam1, lam2))
    worst = 0.0
    for t, lam1, lam2 in samples:
        try:
            got = superpose_over_example(t, lam1, lam2)
            want = reference_general_solution(t, lam1, lam2)
        except (Degenerate, ZeroDivisionError):
            continue
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report_line(
        "6a", "formula over the classical family matches the reference solution",
        ok, f"max |difference| = {worst:.3e} (tolerance 1e-9)", elapsed, 1,
    )
    assert ok


def test_criterion_6b_reference_solution_solves_the_equation():
    start = time.perf_counter()
    sys = lift_sode("mdpi")
    n = 200
    grid = [0.5 + 1.5 * i / (n - 1) for i in range(n)]
    worst = 0.0
    for lam1, lam2 in [(0.3, 0.4), (-0.5, 0.7), (2.0, 3.0)]:
        traj = Trajectory(
            grid, [(reference_general_solution(t, lam1, lam2), 0.0) for t in grid]
        )
        worst = max(worst, residual(sys, traj))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report_line(
        "6b", "reference general solution has small ODE residual", ok,
        f"max finite-difference residual = {worst:.3e} (tolerance 1e-6)",
        elapsed, 1,
    )
    assert ok


def _round_trip(sys, seeds, t0=0.0, t1=1.0):
    worst_err = worst_drift = 0.0
    grid = [t0 + (t1 - t0) * i / 100 for i in range(101)]
    for seed in seeds:
        ics = sample_generic_ics(seed, 5)
        trajs = [integrate(sys, ic, t0, grid, 1e-10) for ic in ics]
        target = trajs[4]
        result = reconstruct(
            SuperposeProblem(trajs[:4], target=target.states[0])
        )
        err = max(
            max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for a, b in zip(result.trajectory.states, target.states)
        )
        lams = [
            lambda_integrals([target.states[i], *[tr.states[i] for tr in trajs[:4]]])
            for i in range(0, 101, 10)
        ]
        drift = max(
            max(abs(l1 - lams[0][0]), abs(l2 - lams[0][1])) for l1, l2 in lams
        )
        worst_err = max(worst_err, err)
        worst_drift = max(worst_drift, drift)
    return worst_err, worst_drift


def test_criterion_7_autonomous_round_trip():
    start = time.perf_counter()
    sys = lift_sode("mdpi")
    err, drift = _round_trip(sys, range(100, 110))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and drift <= 1e-8 and elapsed < 10.0
    report_line(
        7, "autonomous round-trip over 10 seeds", ok,
        f"max reconstruction error {err:.3e} (<=1e-6), "
        f"max Lambda-drift {drift:.3e} (<=1e-8)",
        elapsed, 10,
    )
    assert ok


def test_criterion_8_general_family_round_trip():
    start = time.perf_counter()
    sys = lift_sode("general", {"f": "sin(t)", "g": "cos(t)", "h": "0.1"})
    err, drift = _round_trip(sys, range(200, 210))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and drift <= 1e-8 and elapsed < 10.0
    report_line(
        8, "time-dependent family round-trip (f=sin t, g=cos t, h=0.1)", ok,
        f"max reconstruction error {err:.3e} (<=1e-6), "
        f"max Lambda-drift {drift:.3e} (<=1e-8)",
        elapsed, 10,
    )
    assert ok


def test_criterion_9_riccati_pipeline():
    start = time.perf_counter()
    sys = lift_sode("riccati", {"a0": "0.1*cos(t)", "a1": "0.2", "a2": "0.1*sin(t)",
                                "a3": "(1 + 0.1*sin(t))^2"}, interval=(0.0, 0.8))
    c = RiccatiCoeffs(sys.coeffs["a3"])
    grid = [0.8 * i / 80 for i in range(81)]
    ics = sample_generic_ics(42, 5)
    trajs = [integrate(sys, ic, 0.0, grid, 1e-10) for ic in ics]
    result = superpose_riccati(c, trajs[:4], target=trajs[4].states[0])
    err = max(
        max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        for a, b in zip(result.trajectory.states, trajs[4].states)
    )
    rhs_report = transformed_rhs_check()
    rhs_exact = [r.computed for r in rhs_report.records] == ["0", "0"]

    # a3 = 1 degeneration must match the time-independent path bit for bit
    sys1 = lift_sode("riccati", {"a0": "0", "a1": "0", "a2": "0", "a3": "1"})
    c1 = RiccatiCoeffs(sys1.coeffs["a3"])
    g1 = [i / 60 for i in range(61)]
    ics1 = sample_generic_ics(43, 5)
    trajs1 = [integrate(sys1, ic, 0.0, g1, 1e-10) for ic in ics1]
    via = superpose_riccati(c1, trajs1[:4], target=trajs1[4].states[0])
    direct = reconstruct(SuperposeProblem(trajs1[:4], target=trajs1[4].states[0]))
    bit_match = via.trajectory.states == direct.trajectory.states

    elapsed = time.perf_counter() - start
    ok = (err <= 1e-6 and rhs_report.passed and rhs_exact and bit_match
          and elapsed < 10.0)
    report_line(
        9, "time-dependent Riccati superposition", ok,
        f"reconstruction error {err:.3e} (<=1e-6), transformed-RHS "
        f"residuals exactly 0 {rhs_exact}, a3=1 bit-match {bit_match}",
        elapsed, 10,
    )
    assert ok


def test_criterion_10_negative_controls(monkeypatch):
    start = time.perf_counter()

    # (a) perturbed X5 -> verification FAILs
    from fractions import Fraction

    from liesuper.exactpoly import Polynomial, VectorField

    fields = builtin_fields("sl3-family")
    coords = fields[0].coords
    x5 = fields[4]
    fields[4] = VectorField(
        [x5.components[0] + Polynomial(coords, {(1, 0): Fraction(1)}),
         x5.components[1]],
        coords,
    )
    mutation_detected = not verify_paper_table(_structure_or_not_closed(fields)).passed

    # (b) dropping the a3'/(2 a3) term in b0 -> the exact identity FAILs,
    # naming its residual
    with monkeypatch.context() as m:
        m.setattr(odeint, "riccati_damping",
                  lambda a2, a3: (a2 / Sqrt(a3), Const(3) * Sqrt(a3)))
        records = transformed_rhs_check().records
    disc = records[1].computed
    derivative_term_matters = ([r.status for r in records] == ["PASS", "FAIL"]
                               and disc == "-4*w*s*sp")

    # (c) duplicated particular solution -> Degenerate
    sys = lift_sode("mdpi")
    g = [i / 50 for i in range(51)]
    ics = sample_generic_ics(77)
    trajs = [integrate(sys, ic, 0.0, g, 1e-10) for ic in ics[:3]]
    trajs.insert(0, trajs[0])
    try:
        reconstruct(SuperposeProblem(trajs, constants=(0.3, 0.7)))
        duplicate_detected = False
    except Degenerate:
        duplicate_detected = True

    elapsed = time.perf_counter() - start
    ok = mutation_detected and derivative_term_matters and duplicate_detected
    report_line(
        10, "negative controls all trip their designated failure", ok,
        f"mutated X5 detected {mutation_detected}, dropped-derivative "
        f"residual {disc} (FAIL), duplicate slot detected "
        f"{duplicate_detected}",
        elapsed, 10,
    )
    assert ok
