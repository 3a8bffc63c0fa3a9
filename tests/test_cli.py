"""Command-line interface: exit codes, outputs, and report files."""

import dataclasses
import json
import time

import pytest

from liesuper import algebra, cli, exactpoly, odeint, superpose
from liesuper.cli import main


def count_integrations(monkeypatch) -> list:
    """Record each call of the CLI's integrate; the calls still run."""
    calls = []
    integrate = cli.integrate

    def counting(*args):
        calls.append(args[2])
        return integrate(*args)

    monkeypatch.setattr(cli, "integrate", counting)
    return calls


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


SOLVE_BASE = {
    "family": "mdpi",
    "coefficients": {"f": "0"},
    "initial": [1, -1],
    "interval": [0, 1],
    "points": 201,
    "tol": 1e-10,
}


SUPERPOSE_BASE = {
    "family": "mdpi",
    "interval": [0, 1],
    "points": 11,
    "initial_conditions": [[0.1, 0.2], [0.3, 0.1], [0.3, -0.1], [-0.2, 0.4]],
    "constants": [0.3, 0.7],
}


class TestVerify:
    def test_stock_build_passes(self, tmp_path, capsys):
        code = main(["verify", "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        data = json.loads((tmp_path / "verify_report.json").read_text())
        assert data["passed"] is True
        assert (tmp_path / "verify_report.txt").exists()
        # the known table/recomputation conflicts surface as WARN, not FAIL
        assert "[WARN] F431" in out

    @pytest.mark.parametrize("flags", [
        [], ["--all-fields"], ["--mutate-x5"], ["--all-fields", "--mutate-x5"],
    ])
    def test_one_structure_table_per_verify(self, capsys, monkeypatch, flags):
        calls = []
        plain = algebra.structure_constants

        def counting(basis):
            calls.append(basis)
            return plain(basis)

        monkeypatch.setattr(algebra, "structure_constants", counting)
        main(["verify", *flags])
        assert len(calls) == 1
        out = capsys.readouterr().out
        if "--mutate-x5" in flags:  # both suites still name the first bracket
            suites = out.split("\n\n")
            for title in ("bracket table of {X1..X8}",
                          "matrix realisation of the {X1..X8}"):
                suite, = (s for s in suites if s.startswith(title))
                assert ("[FAIL] [X1,X4]: expected closed bracket, got outside span"
                        in suite)

    @pytest.mark.parametrize("flags, derivations, prolongations", [
        ([], 0, 0), (["--all-fields"], 0, 0), (["--mutate-x5"], 0, 0),
        (["--all-fields", "--mutate-x5"], 2, 1),
    ])
    def test_lambda_fallback_work(self, capsys, monkeypatch, flags, derivations,
                                  prolongations):
        # cofactors come from three copies; only a field whose cofactors do
        # not cancel (the mutated X5) is prolonged to five, once, and its two
        # records run derive_along
        derived, five_copies = [], []
        derive_along, init = superpose.derive_along, exactpoly.VectorField.__init__

        def counting_derive(hat, lam):
            derived.append(lam)
            return derive_along(hat, lam)

        def counting_init(self, components, coords):
            if len(coords) == 10:
                five_copies.append(coords)
            init(self, components, coords)

        monkeypatch.setattr(superpose, "derive_along", counting_derive)
        monkeypatch.setattr(exactpoly.VectorField, "__init__", counting_init)
        main(["verify", *flags])
        capsys.readouterr()
        assert (len(derived), len(five_copies)) == (derivations, prolongations)

    @pytest.mark.parametrize("argv, basis_steps, target_steps", [
        (["verify"], 6, 72), (["verify", "--all-fields"], 6, 72),
        (["verify", "--mutate-x5"], 7, 16),
        (["verify", "--all-fields", "--mutate-x5"], 7, 16),
        (["rank", "--point", "1/2,-1/3,2,5/7,1,0,-2/5,3"], 24, 0),
        (["rank", "--point", "1/2,1/2,2,5/7,1,1,-2/5,3"], 25, 0),
    ])
    def test_elimination_work(self, capsys, monkeypatch, argv, basis_steps,
                              target_steps):
        # a row, basis vector or target, takes a pivot step only where it
        # holds the pivot's column: one step of the row, one of its combination.
        # rank carries no combination, so each of its combination steps joins
        # two empty vectors, and verify's never do
        steps = {"basis": 0, "target": 0, "empty": 0}
        where = ["basis"]
        step, solve = exactpoly._step, exactpoly.Elimination.solve

        def counting_step(v, w, piv, f):
            steps[where[0]] += 1
            steps["empty"] += not v and not w
            return step(v, w, piv, f)

        def counting_solve(self, target):
            where[0] = "target"
            try:
                return solve(self, target)
            finally:
                where[0] = "basis"

        monkeypatch.setattr(exactpoly, "_step", counting_step)
        monkeypatch.setattr(exactpoly.Elimination, "solve", counting_solve)
        main(argv)
        capsys.readouterr()
        empty = basis_steps if argv[0] == "rank" else 0
        assert steps == {"basis": 2 * basis_steps, "target": 2 * target_steps,
                         "empty": empty}

    def test_mutated_x5_fails_with_named_pair(self, capsys):
        code = main(["verify", "--mutate-x5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    def test_unwritable_output_dir_exit2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["verify", "--output-dir", str(blocker / "reports")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write" in err


class TestSolve:
    def test_closed_form(self, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        cfg = dict(SOLVE_BASE, output=str(out_csv), report=str(tmp_path / "r.json"))
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "t,x,v"
        worst = 0.0
        for row in rows[1:]:
            t, x, _ = (float(p) for p in row.split(","))
            worst = max(worst, abs(x - 1 / (1 + t)))
        assert worst < 1e-8
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["fd_residual"] < 1e-5

    def test_non_uniform_float_grid_reports_null_residual(self, tmp_path, capsys):
        # at t ~ 1e14 the float grid steps are not equal, so the FD residual
        # oracle does not apply: the finished run still writes its report
        cfg = dict(SOLVE_BASE, interval=[100000000000000, 100000000000001],
                   points=11, output=str(tmp_path / "traj.csv"),
                   report=str(tmp_path / "r.json"))
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["fd_residual"] is None
        assert report["grid_points"] == 11

    def test_report_counts_steps_and_rhs_calls(self, tmp_path, monkeypatch):
        # dense output: steps follow tol, not the 200 grid intervals, and
        # the report's rhs_calls is the count the right-hand side saw
        calls = 0
        integrate = cli.integrate

        def counting(sys, *args):
            def rhs(t, x, v):
                nonlocal calls
                calls += 1
                return sys.rhs(t, x, v)

            return integrate(dataclasses.replace(sys, rhs=rhs), *args)

        monkeypatch.setattr(cli, "integrate", counting)
        for t1, rejected in ((1, 0), (50, 3)):
            calls = 0
            cfg = dict(SOLVE_BASE, interval=[0, t1],
                       report=str(tmp_path / "r.json"))
            assert main(["solve", "--config",
                         write_config(tmp_path, "c.json", cfg)]) == 0
            report = json.loads((tmp_path / "r.json").read_text())
            assert report["rhs_calls"] == calls == 6 * report["steps"] + 1
            assert report["rejected_steps"] == rejected
            if t1 == 1:
                assert report["steps"] < 100

    def test_stdout_csv_is_the_to_csv_format(self, tmp_path, capsys):
        # with no output file the trajectory goes to stdout, byte for byte
        # what Trajectory.to_csv writes for the same config
        assert main(["solve", "--config",
                     write_config(tmp_path, "c.json", SOLVE_BASE)]) == 0
        printed = capsys.readouterr().out
        cfg = dict(SOLVE_BASE, output=str(tmp_path / "traj.csv"))
        assert main(["solve", "--config", write_config(tmp_path, "o.json", cfg)]) == 0
        assert printed.encode() == (tmp_path / "traj.csv").read_bytes()

    def test_deterministic_reruns(self, tmp_path):
        out_csv = tmp_path / "traj.csv"
        cfg = dict(SOLVE_BASE, output=str(out_csv))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path]) == 0
        first = out_csv.read_bytes()
        assert main(["solve", "--config", path]) == 0
        assert out_csv.read_bytes() == first

    def test_parse_error_exit2(self, tmp_path, capsys):
        cfg = dict(SOLVE_BASE, coefficients={"f": "sin("})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["t^²", "²", "1²", "٣*t"])
    def test_non_ascii_digit_exit2(self, tmp_path, capsys, text):
        cfg = dict(SOLVE_BASE, coefficients={"f": text})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert " at position " in err

    def test_unknown_key_exit2(self, tmp_path, capsys):
        cfg = dict(SOLVE_BASE, frobnicate=1)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tol", "points"])
    def test_bool_for_number_exit2(self, tmp_path, capsys, key):
        cfg = dict(SOLVE_BASE, **{key: True})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key) in err

    def test_exp_overflow_exit2(self, tmp_path, capsys):
        cfg = dict(SOLVE_BASE, coefficients={"f": "exp(1000)"})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflow" in err

    @pytest.mark.parametrize("family,coefficients", [
        ("mdpi", {"f": "(t+1000)^200"}),
        ("riccati", {"a3": "1 + t*(t+1000)^200"}),  # evaluated by the a3 checks
        ("mdpi", {"f": "1" + "0" * 400}),  # a literal beyond the float range
    ])
    def test_power_overflow_exit2(self, tmp_path, capsys, family, coefficients):
        cfg = dict(SOLVE_BASE, family=family, coefficients=coefficients)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflow" in err

    @pytest.mark.parametrize("key,value", [
        ("interval", [0, "x"]),
        ("interval", [0, True]),
        ("interval", [0]),
        ("interval", [0, 10**400]),
        ("initial", [1, None]),
        ("initial", ["1", 0]),
        ("coefficients", {"f": None}),
        ("coefficients", {"f": [1]}),
        ("coefficients", {"f": float("inf")}),
        ("coefficients", {"f": 10**400}),
    ])
    def test_malformed_shape_exit2(self, tmp_path, capsys, key, value):
        cfg = dict(SOLVE_BASE, **{key: value})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("key", ["output", "report"])
    def test_unwritable_output_exit2(self, tmp_path, capsys, monkeypatch, key):
        integrations = count_integrations(monkeypatch)
        cfg = dict(SOLVE_BASE, **{key: str(tmp_path / "missing-dir" / "x")})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing-dir" in err
        assert integrations == []  # refused before any work

    @pytest.mark.parametrize("key", ["output", "report"])
    def test_directory_as_output_exit2(self, tmp_path, capsys, monkeypatch, key):
        integrations = count_integrations(monkeypatch)
        cfg = dict(SOLVE_BASE, **{key: str(tmp_path)})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert integrations == []

    def test_rhs_overflow_exit4(self, tmp_path, capsys):
        cfg = dict(SOLVE_BASE, initial=[1e200, 0])
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    @pytest.mark.parametrize("family", odeint.FAMILIES)
    def test_overflowing_state_exit4_in_every_family(self, tmp_path, capsys, family):
        cfg = dict(SOLVE_BASE, family=family, coefficients={}, initial=[1e200, 0])
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 4
        assert capsys.readouterr().err == "error: non-finite right-hand side at t=0.0\n"

    @pytest.mark.parametrize("family,coefficients,allowed", [
        ("exam2", {"lam": "5"}, "lam1"),  # integrated with lam1 = 0 before
        ("riccati", {"b0": "5"}, "a0, a1, a2, a3"),  # b0 is derived: was ignored
    ])
    def test_unknown_coefficient_exit2(self, tmp_path, capsys, monkeypatch,
                                       family, coefficients, allowed):
        integrations = count_integrations(monkeypatch)
        cfg = dict(SOLVE_BASE, family=family, coefficients=coefficients)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        [name] = coefficients
        assert capsys.readouterr().err == (
            f"error: family {family!r} has no coefficient {name!r}; "
            f"its coefficients are {allowed}\n")
        assert integrations == []

    def test_a3_over_a_large_constant_exit0(self, tmp_path, capsys):
        # a3' = 1/10^200; the quotient rule squared 10^200 and overflowed
        cfg = dict(SOLVE_BASE, family="riccati",
                   coefficients={"a3": "1 + t/10^200"}, points=11)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_constraint_violation_exit4(self, tmp_path):
        cfg = {
            "family": "riccati",
            "coefficients": {"a3": "2"},
            "initial": [0, 0],
            "interval": [0, 1],
        }
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 4

    def test_blow_up_exit3_with_time(self, tmp_path, capsys):
        cfg = dict(SOLVE_BASE, initial=[-5, -40], points=11)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 3
        assert "t* =" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [cli.MAX_POINTS + 1, 1_000_000_000])
    def test_too_many_points_exit2_before_allocating(self, tmp_path, capsys,
                                                      monkeypatch, points):
        integrations = count_integrations(monkeypatch)
        # fail at once, rather than allocate, if the grid is ever built
        monkeypatch.setattr(cli, "range", lambda n: pytest.fail(f"range({n})"),
                            raising=False)
        cfg = dict(SOLVE_BASE, points=points)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: points must be at most {cli.MAX_POINTS}\n"
        assert integrations == []

    @pytest.mark.parametrize("tol", [0, -1e-10, float("inf"), float("nan"), 10**400])
    def test_bad_tol_exit2_before_integrating(self, tmp_path, capsys, monkeypatch,
                                              tol):
        integrations = count_integrations(monkeypatch)
        cfg = dict(SOLVE_BASE, tol=tol)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'tol'" in err
        assert integrations == []

    def test_error_norm_overflow_rejects_the_step(self, tmp_path, capsys):
        # at tol 1e-200 the scaled error of a first attempt is too large to
        # square; the step is rejected and shrunk instead of raising
        cfg = dict(SOLVE_BASE, family="general", initial=[0.3, -0.2], tol=1e-200,
                   coefficients={"f": "sin(t)", "g": "1", "h": "t"})
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_stiff_problem_exit6_within_seconds(self, tmp_path, capsys,
                                                monkeypatch):
        # the work is pinned by the budget: six rhs calls per attempted
        # step plus the first stage, and the wall time by a few seconds
        calls = 0
        integrate = cli.integrate

        def counting(sys, *args):
            def rhs(t, x, v):
                nonlocal calls
                calls += 1
                return sys.rhs(t, x, v)

            return integrate(dataclasses.replace(sys, rhs=rhs), *args)

        monkeypatch.setattr(cli, "integrate", counting)
        cfg = dict(SOLVE_BASE, coefficients={"f": "exp(1000*t)"})
        start = time.perf_counter()
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert time.perf_counter() - start < 5
        assert calls == 6 * (odeint.STEP_BUDGET + cfg["points"] - 1) + 1
        assert code == 6
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "step budget" in err and "t = " in err

    def test_exact_end_state_at_1e14(self, tmp_path, capsys):
        # x = 1/(1 + t - t0) solves mdpi with f = 0 from (1, -1)
        cfg = dict(SOLVE_BASE, interval=[100000000000000, 100000000000001],
                   points=11)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        x_end = float(capsys.readouterr().out.splitlines()[-1].split(",")[1])
        assert abs(x_end - 0.5) < 1e-6

    def test_time_dependent_coefficient_at_1e14(self, tmp_path, capsys):
        # sin(t) is sampled at the 1/64 spacing of floats near 1e14, but
        # the steps are not: a bounded solution is not a blow-up
        cfg = dict(SOLVE_BASE, coefficients={"f": "sin(t)"}, initial=[0.1, 0.2],
                   interval=[100000000000000, 100000000000001], points=11)
        code = main(["solve", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[-11:]
        assert all(abs(float(row.split(",")[1])) < 1 for row in rows)


@pytest.mark.parametrize("command, base", [
    ("solve", SOLVE_BASE),
    ("superpose", {k: v for k, v in SUPERPOSE_BASE.items() if k != "constants"}
     | {"target": [0.05, -0.3]}),
])
def test_fd_residual_only_for_a_report(tmp_path, capsys, monkeypatch, command, base):
    # the FD residual is a report field: a run without a report skips it
    values = []
    residual = cli.residual

    def counting(*args):
        values.append(residual(*args))
        return values[-1]

    monkeypatch.setattr(cli, "residual", counting)
    assert main([command, "--config", write_config(tmp_path, "a.json", base)]) == 0
    bare = capsys.readouterr().out
    assert values == []
    path = str(tmp_path / "r.json")
    cfg = dict(base, report=path)
    assert main([command, "--config", write_config(tmp_path, "b.json", cfg)]) == 0
    assert capsys.readouterr().out == bare + f"report written to {path}\n"
    assert len(values) == 1
    assert json.loads((tmp_path / "r.json").read_text())["fd_residual"] == values[0]


@pytest.mark.parametrize("interval", [[0, 1e-300], [0, 1e-160]])
@pytest.mark.parametrize("command, base", [
    ("solve", SOLVE_BASE),
    ("superpose", {k: v for k, v in SUPERPOSE_BASE.items() if k != "constants"}
     | {"target": [0.05, -0.3]}),
])
def test_tiny_step_reports_null_residual(tmp_path, capsys, command, base, interval):
    # 12*h*h is 0 or subnormal on 11 points of these windows: the FD
    # residual does not apply, and the finished run still writes its report
    cfg = dict(base, interval=interval, points=11, report=str(tmp_path / "r.json"))
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "r.json").read_text())["fd_residual"] is None


@pytest.mark.parametrize("tol, eps_gen", [("1e-6", "1e-3"), ("nan", "x")])
@pytest.mark.parametrize("command, base, code", [
    ("solve", {k: v for k, v in SOLVE_BASE.items() if k != "tol"}, 0),
    ("superpose", SUPERPOSE_BASE, 0),
    ("superpose", dict(SUPERPOSE_BASE, initial_conditions=[[0.1, 0.2]] * 4), 5),
], ids=["solve", "superpose", "superpose-degenerate"])
def test_settings_come_from_the_config_only(tmp_path, capsys, monkeypatch,
                                            tol, eps_gen, command, base, code):
    # a run is its config: these variables, valid or not, change no output
    paths = [tmp_path / "o.csv", tmp_path / "r.json"]
    cfg = dict(base, output=str(paths[0]), report=str(paths[1]))
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg)]

    def run():
        result = (main(argv), capsys.readouterr(),
                  [p.read_bytes() if p.exists() else None for p in paths])
        for p in paths:
            p.unlink(missing_ok=True)
        return result

    unset = run()
    assert unset[0] == code
    monkeypatch.setenv("LIESUPER_TOL", tol)
    monkeypatch.setenv("LIESUPER_EPS_GEN", eps_gen)
    assert run() == unset


class TestSuperpose:
    @staticmethod
    def _generic_solution_ics(t):
        # every solution of xddot + 3x xdot + x^3 = 0 is x = udot/u with u
        # quadratic in t, and a slot triple degenerates exactly when its u's
        # are linearly dependent; u = 1, t^2, (1+t)^2, 1+t+2t^2 are in
        # general position (every triple independent), also jointly with the
        # target's u = t, so this family is generic for reconstructing 1/t
        return [
            [0.0, 0.0],
            [2 / t, -2 / t**2],
            [2 / (1 + t), -2 / (1 + t) ** 2],
            [
                (1 + 4 * t) / (1 + t + 2 * t**2),
                (3 - 4 * t - 8 * t**2) / (1 + t + 2 * t**2) ** 2,
            ],
        ]

    def test_reconstruct_one_over_t(self, tmp_path, capsys):
        # particular ICs sampled at t = 0.2 (clear of the pole at 0),
        # reconstruct the solution 1/t from its initial state (5, -25)
        cfg = {
            "family": "mdpi",
            "coefficients": {"f": "0"},
            "interval": [0.2, 1.2],
            "points": 101,
            "initial_conditions": self._generic_solution_ics(0.2),
            "target": [5.0, -25.0],
            "output": str(tmp_path / "rec.csv"),
            "report": str(tmp_path / "rec.json"),
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        report = json.loads((tmp_path / "rec.json").read_text())
        assert report["max_error_vs_reference"] < 1e-6
        assert abs(report["genericity_product_at_start"]) > 1e-10
        rows = (tmp_path / "rec.csv").read_text().strip().splitlines()
        t_last, x_last, _ = (float(p) for p in rows[-1].split(","))
        assert x_last == pytest.approx(1 / t_last, abs=1e-6)

    def test_classical_family_is_degenerate_exit5(self, tmp_path, capsys):
        # the classical four solutions have F123 = 0 identically; fitting an
        # off-family target makes the superposition denominator vanish, which
        # must surface as the degeneracy exit code, not as a wrong answer
        from liesuper.worked_example import example_states

        cfg = {
            "family": "mdpi",
            "interval": [0.2, 1.2],
            "points": 51,
            "initial_conditions": [list(s) for s in example_states(0.2)],
            "target": [5.0, -25.0],
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 5

    def test_general_family_round_trip(self, tmp_path):
        from conftest import sample_generic_ics

        ics = sample_generic_ics(17, 5)
        cfg = {
            "family": "general",
            "coefficients": {"f": "sin(t)", "g": "cos(t)", "h": "0.1"},
            "interval": [0, 1],
            "points": 101,
            "initial_conditions": [list(ic) for ic in ics[:4]],
            "target": list(ics[4]),
            "report": str(tmp_path / "rec.json"),
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        report = json.loads((tmp_path / "rec.json").read_text())
        assert report["max_error_vs_reference"] < 1e-6

    def test_csv_inputs(self, tmp_path):
        # integrate four solutions to CSV first, then superpose from files
        from conftest import sample_generic_ics

        ics = sample_generic_ics(29, 4)
        paths = []
        for i, ic in enumerate(ics):
            cfg = dict(
                SOLVE_BASE,
                initial=list(ic),
                points=51,
                output=str(tmp_path / f"p{i}.csv"),
            )
            assert main(["solve", "--config",
                         write_config(tmp_path, f"s{i}.json", cfg)]) == 0
            paths.append(str(tmp_path / f"p{i}.csv"))
        cfg = {
            "family": "mdpi",
            "interval": [0, 1],
            "inputs": paths,
            "constants": [0.25, 0.65],
            "output": str(tmp_path / "rec.csv"),
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert (tmp_path / "rec.csv").exists()

    def test_non_uniform_inputs_report_null_residual(self, tmp_path, capsys):
        # the reconstruction runs on the inputs' 12-point grid, which is not
        # uniform: the FD residual does not apply, and the report says null
        from conftest import sample_generic_ics

        ics = sample_generic_ics(29, 5)
        sys_ = odeint.lift_sode("mdpi", {"f": "0"})
        grid = [(i / 11) ** 1.5 for i in range(12)]
        paths = []
        for i, ic in enumerate(ics[:4]):
            paths.append(str(tmp_path / f"p{i}.csv"))
            odeint.integrate(sys_, ic, 0.0, grid, 1e-10).to_csv(paths[-1])
        cfg = {"family": "mdpi", "interval": [0, 1], "inputs": paths,
               "target": list(ics[4]), "output": str(tmp_path / "rec.csv"),
               "report": str(tmp_path / "rec.json")}
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "rec.json").read_text())
        assert report["fd_residual"] is None
        assert report["max_error_vs_reference"] < 1e-6

    @pytest.mark.parametrize("fit", [{"constants": [0.25, 0.65]},
                                     {"target": [0.1, 0.2]}])
    def test_header_only_inputs_exit2(self, tmp_path, capsys, fit):
        paths = []
        for i in range(4):
            path = tmp_path / f"p{i}.csv"
            path.write_text("t,x,v\n")
            paths.append(str(path))
        cfg = dict({"family": "mdpi", "interval": [0, 1], "inputs": paths}, **fit)
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and paths[0] in err

    @pytest.mark.parametrize("row,reason", [
        ("1,nan,0.2", "non-finite"),
        ("0,0.1,inf", "non-finite"),
        ("1,0.2", "not enough values"),
        ("1,abc,0.2", "could not convert"),
        ("0.25,0.1,0.2", "strictly increasing"),
    ])
    def test_bad_input_row_names_file_and_line_exit2(self, tmp_path, capsys,
                                                     row, reason):
        paths = []
        for i in range(4):
            path = tmp_path / f"p{i}.csv"
            path.write_text(f"t,x,v\n0,0.{i},0.1\n0.5,0.{i},-0.1\n")
            paths.append(str(path))
        with open(paths[2], "a") as fh:
            fh.write(row + "\n")
        cfg = {"family": "mdpi", "interval": [0, 1], "inputs": paths,
               "constants": [0.25, 0.65], "output": str(tmp_path / "rec.csv")}
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{paths[2]}, line 4" in err and reason in err
        assert not (tmp_path / "rec.csv").exists()

    def test_riccati_family_lifted_once(self, tmp_path, monkeypatch):
        # the a3 constraint checks run inside lift_sode, once per lift
        calls = []
        check = odeint._check_riccati_constraints

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(odeint, "_check_riccati_constraints", counting)
        cfg = {
            "family": "riccati",
            "coefficients": {"a2": "t", "a3": "1 + t^2"},
            "interval": [0, 1],
            "points": 11,
            "initial_conditions": [[0.1, -0.2], [0.3, 0.1], [-0.2, 0.4], [0.25, -0.4]],
            "constants": [0.4, 1.3],
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("key", ["output", "report"])
    def test_unwritable_output_exit2(self, tmp_path, capsys, monkeypatch, key):
        integrations = count_integrations(monkeypatch)
        cfg = {
            "family": "mdpi",
            "interval": [0, 1],
            "points": 11,
            "initial_conditions": [[0.1, 0.2], [0.3, 0.1], [0.3, -0.1], [-0.2, 0.4]],
            "constants": [0.3, 0.7],
            key: str(tmp_path / "missing-dir" / "x"),
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing-dir" in err
        assert err == (f"error: cannot write {cfg[key]}: [Errno 2] No such file or "
                       f"directory: '{cfg[key]}'\n")
        assert integrations == []  # refused before any work

    def test_reference_integrated_from_fit_time(self, tmp_path, capsys):
        # the target is fitted at t = 0.5, so the directly integrated
        # reference must start there too, and is compared from there on
        cfg = {
            "family": "general",
            "coefficients": {"f": "sin(t)", "g": "cos(t)", "h": "0.1"},
            "interval": [0, 1],
            "points": 101,
            "initial_conditions": [[0.1, -0.2], [0.3, 0.1], [-0.2, 0.4], [0.25, -0.4]],
            "target": [0.05, 0.3],
            "fit_time": 0.5,
            "report": str(tmp_path / "rec.json"),
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        report = json.loads((tmp_path / "rec.json").read_text())
        assert report["max_error_vs_reference"] < 1e-6
        assert "max error vs directly integrated target: " in capsys.readouterr().out
        cfg["fit_time"] = 1  # the last grid time: a one-point comparison
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        report = json.loads((tmp_path / "rec.json").read_text())
        assert report["max_error_vs_reference"] < 1e-6

    def test_fit_time_off_the_grid_exit2_before_integrating(self, tmp_path, capsys,
                                                            monkeypatch):
        integrations = count_integrations(monkeypatch)
        cfg = dict(SUPERPOSE_BASE, points=1001, fit_time=0.1234)
        del cfg["constants"]
        cfg["target"] = [0.05, 0.3]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["superpose", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: fit_time 0.1234 is not a grid time\n")
        assert integrations == []
        # both or neither of constants and target: refused before integrating
        for cfg in (dict(SUPERPOSE_BASE, target=[0.05, 0.3]),
                    {k: v for k, v in SUPERPOSE_BASE.items() if k != "constants"}):
            path = write_config(tmp_path, "c.json", cfg)
            assert main(["superpose", "--config", path]) == 2
            assert capsys.readouterr().err == (
                "error: give either constants or a target state, not both\n")
            assert integrations == []
        # with constants, fit_time goes unused
        cfg = dict(SUPERPOSE_BASE, points=1001, fit_time=0.1234)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["superpose", "--config", path]) == 0
        assert len(integrations) == 4

    def test_duplicate_ic_exit5(self, tmp_path, capsys):
        cfg = {
            "family": "mdpi",
            "interval": [0, 1],
            "points": 51,
            "initial_conditions": [[0.1, 0.2], [0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]],
            "constants": [0.3, 0.7],
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 5
        assert "t =" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [-1, float("nan"), float("inf")],
                             ids=["-1-None", "nan-None", "inf-None"])
    def test_bad_eps_gen_exit2_before_integrating(self, tmp_path, capsys,
                                                  monkeypatch, key):
        # a negative or NaN guard would let an exactly vanishing denominator
        # through to a ZeroDivisionError
        integrations = count_integrations(monkeypatch)
        cfg = {
            "family": "mdpi",
            "interval": [0, 1],
            "points": 51,
            "initial_conditions": [[0.1, 0.2], [0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]],
            "constants": [0.3, 0.7],
            "eps_gen": key,
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'eps_gen'" in err
        assert integrations == []

    def test_zero_eps_gen_is_a_guard(self, tmp_path, capsys):
        cfg = {
            "family": "mdpi",
            "interval": [0, 1],
            "points": 51,
            "initial_conditions": [[0.1, 0.2], [0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]],
            "constants": [0.3, 0.7],
            "eps_gen": 0,
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 5

    def test_non_finite_states_exit5_before_writing(self, tmp_path, capsys):
        # the README config at constants this large gives nan rows, and a
        # report whose min_denominator would be the non-JSON Infinity
        cfg = {
            "family": "general",
            "coefficients": {"f": "sin(t)", "g": "cos(t)", "h": "0.1"},
            "interval": [0, 1],
            "points": 11,
            "initial_conditions": [[0.1, -0.2], [0.3, 0.1], [-0.2, 0.4], [0.25, -0.4]],
            "constants": [1e200, 1e200],
            "eps_gen": 0,
            "output": str(tmp_path / "out.csv"),
            "report": str(tmp_path / "r.json"),
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: degenerate configuration (reconstructed x0 = nan)"
                       " at t = 0\n")
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "r.json").exists()

    def test_both_ics_and_inputs_rejected(self, tmp_path):
        cfg = {
            "family": "mdpi",
            "interval": [0, 1],
            "initial_conditions": [[0, 0]] * 4,
            "inputs": ["a", "b", "c", "d"],
            "constants": [0, 0],
        }
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2


    @pytest.mark.parametrize("key,value", [
        ("constants", [1]),
        ("constants", [1, "a"]),
        ("target", [0.1]),
        ("target", [True, 0]),
        ("target", [float("nan"), 0]),
        ("initial_conditions", [[0.1, 0.2], [0.3], [0.3, -0.1], [-0.2, 0.4]]),
        ("inputs", [0, 1, 2, 3]),
        ("inputs", ["missing-a.csv", "missing-b.csv", "missing-c.csv", "missing-d.csv"]),
    ])
    def test_malformed_shape_exit2(self, tmp_path, capsys, key, value):
        cfg = dict(SUPERPOSE_BASE)
        if key == "target":
            del cfg["constants"]
        if key == "inputs":
            del cfg["initial_conditions"]
        cfg[key] = value
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("input" if key == "inputs" else key) in err


class TestSuperposeSteps:
    """superpose integrates with dense output at tol / 100."""

    README = {
        "family": "general",
        "coefficients": {"f": "sin(t)", "g": "cos(t)", "h": "0.1"},
        "interval": [0, 1],
        "points": 101,
        "initial_conditions": [[0.1, -0.2], [0.3, 0.1], [-0.2, 0.4], [0.25, -0.4]],
        "target": [0.05, 0.3],
    }

    @staticmethod
    def _recording(monkeypatch) -> list:
        """Each Trajectory the CLI's integrate returns; the calls still run."""
        results = []
        integrate = cli.integrate

        def recording(*args):
            results.append(integrate(*args))
            return results[-1]

        monkeypatch.setattr(cli, "integrate", recording)
        return results

    def test_readme_config_steps(self, tmp_path, monkeypatch):
        # five tolerance-sized integrations where grid landing took 5 x 100
        trajs = self._recording(monkeypatch)
        cfg = dict(self.README, report=str(tmp_path / "r.json"))
        assert main(["superpose", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == 0
        assert [t.steps for t in trajs] == [56, 77, 93, 51, 76]
        assert {t.tol for t in trajs} == {1e-12}

    @pytest.mark.parametrize("case", ["initial_conditions", "target",
                                      "inputs", "inputs and target"])
    def test_report_counts_steps_and_rhs_calls(self, tmp_path, monkeypatch,
                                               case):
        # summed over the integrations the command ran: the four particular
        # solutions and the target's reference; none for CSV inputs alone
        calls = 0
        integrate = cli.integrate

        def counting(sys, *args):
            def rhs(t, x, v):
                nonlocal calls
                calls += 1
                return sys.rhs(t, x, v)

            return integrate(dataclasses.replace(sys, rhs=rhs), *args)

        cfg = dict(SUPERPOSE_BASE, report=str(tmp_path / "r.json"))
        integrations = 4
        if "target" in case:
            del cfg["constants"]
            cfg["target"] = [0.05, -0.3]
        if "inputs" in case:
            paths, grid = [], [k / 10 for k in range(11)]
            for i, ic in enumerate(cfg.pop("initial_conditions")):
                paths.append(str(tmp_path / f"p{i}.csv"))
                odeint.integrate(odeint.lift_sode("mdpi"), ic, 0.0, grid,
                                 1e-10).to_csv(paths[-1])
            cfg["inputs"] = paths
            integrations = 0
        integrations += "target" in case
        monkeypatch.setattr(cli, "integrate", counting)
        assert main(["superpose", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["rhs_calls"] == calls
        assert calls == 6 * report["steps"] + integrations
        assert report["rejected_steps"] == 0
        assert (report["steps"] == 0) == (integrations == 0)

    @pytest.mark.parametrize("tol", [5e-324, 1e-320, 1e-300])
    def test_tiny_tol_still_integrates(self, tmp_path, capsys, tol):
        # tol / 100 underflows to 0 at 5e-324: the integrator's tolerance
        # is held at the smallest positive float, and the command succeeds
        cfg = dict(SUPERPOSE_BASE, tol=tol)
        assert main(["superpose", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("coefficients", [
        None,  # general, the README coefficients
        {"a0": "0.3*cos(t)", "a1": "0.2", "a2": "0.5*sin(t)", "a3": "1 + t^2/4"},
        {"a0": "0.3*cos(t)", "a1": "0.2", "a2": "0.5*sin(t)", "a3": "1"},
    ])
    def test_lambda_drift_error_and_a3_bit_match(self, tmp_path, monkeypatch,
                                                 coefficients):
        from conftest import sample_generic_ics
        from liesuper.riccati import build_riccati, transform_state
        from liesuper.superpose import (SuperposeProblem, lambda_integrals,
                                        reconstruct)

        cfg = dict(self.README, points=1001, output=str(tmp_path / "o.csv"),
                   report=str(tmp_path / "r.json"))
        c = None
        if coefficients:
            cfg.update(family="riccati", coefficients=coefficients)
            c = build_riccati(**coefficients, interval=(0.0, 1.0))
        for seed in range(3):
            ics = sample_generic_ics(seed, 5)
            cfg.update(initial_conditions=[list(ic) for ic in ics[:4]],
                       target=list(ics[4]))
            trajs = self._recording(monkeypatch)
            assert main(["superpose", "--config",
                         write_config(tmp_path, "c.json", cfg)]) == 0
            monkeypatch.undo()
            assert len(trajs) == 5  # four particular solutions, the reference
            report = json.loads((tmp_path / "r.json").read_text())
            assert report["max_error_vs_reference"] <= 1e-6
            times = trajs[0].times
            lams = []
            for i in range(0, len(times), 10):
                states = [trajs[4].states[i]] + [t.states[i] for t in trajs[:4]]
                if c:
                    states = [transform_state(c, times[i], s) for s in states]
                lams.append(lambda_integrals(states))
            assert max(max(abs(l1 - lams[0][0]), abs(l2 - lams[0][1]))
                       for l1, l2 in lams) <= 1e-8
            if coefficients and coefficients["a3"] == "1":
                plain = reconstruct(SuperposeProblem(trajs[:4], target=ics[4]))
                out = odeint.Trajectory.from_csv(tmp_path / "o.csv")
                assert out.states == plain.trajectory.states

    def test_misaligned_rows_name_line_2(self, tmp_path, capsys):
        # 1,2 then 3,4,5,6 hold six values, two rows' worth, but neither
        # row has three: the reader refuses the first, as a line loop did
        paths = []
        for i in range(4):
            path = tmp_path / f"p{i}.csv"
            path.write_text("t,x,v\n1,2\n3,4,5,6\n" if i == 1
                            else f"t,x,v\n0,0.{i},0.1\n0.5,0.{i},-0.1\n")
            paths.append(str(path))
        cfg = {"family": "mdpi", "interval": [0, 1], "inputs": paths,
               "constants": [0.25, 0.65], "output": str(tmp_path / "rec.csv")}
        code = main(["superpose", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[1]}, line 2: not enough values to unpack "
            "(expected 3, got 2)\n")
        assert not (tmp_path / "rec.csv").exists()


class TestConfigErrors:
    @pytest.mark.parametrize("case,text", [
        ("invalid JSON", "{"),
        ("JSON array", "[1, 2]"),
        ("missing file", None),
        ("missing family", {k: v for k, v in SUPERPOSE_BASE.items() if k != "family"}),
        ("missing interval",
         {k: v for k, v in SUPERPOSE_BASE.items() if k != "interval"}),
        ("unknown family", dict(SUPERPOSE_BASE, family="nope")),
        ("reversed interval", dict(SUPERPOSE_BASE, interval=[1, 0])),
        ("one point", dict(SUPERPOSE_BASE, points=1)),
        ("one initial condition",
         dict(SUPERPOSE_BASE, initial_conditions=[[0.1, 0.2]])),
    ])
    def test_exit2_with_one_line_and_no_output(self, tmp_path, capsys, case, text):
        config = tmp_path / "c.json"
        if text is not None:
            if isinstance(text, dict):
                text = json.dumps(dict(text, output=str(tmp_path / "out.csv"),
                                       report=str(tmp_path / "report.json")))
            config.write_text(text)
        code = main(["superpose", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if text is None else ["c.json"])


class TestRank:
    def test_generic_point(self, capsys):
        code = main(["rank", "--point", "1/2,-1/3,2,5/7,1,0,-2/5,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank = 8" in out
        assert "generic" in out

    def test_duplicated_copy(self, capsys):
        code = main(["rank", "--point", "1/2,1/2,2,5/7,1,1,-2/5,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank = 6" in out
        assert "degenerate" in out

    def test_negative_first_entry_is_a_value(self, capsys):
        point = "-1,1,2,3,4,5,6,7"
        assert main(["rank", f"--point={point}"]) == 0
        expected = capsys.readouterr()
        assert main(["rank", "--point", point]) == 0
        assert capsys.readouterr() == expected
        assert "rank = 8" in expected.out

    def test_bad_point_exit2(self, capsys):
        assert main(["rank", "--point", "1,2,3"]) == 2
        assert main(["rank", "--point", "1,2,3,4,5,6,7,z"]) == 2

    @pytest.mark.parametrize("entry", ["\u0663", "\u0663/\u0664", "1/\u0664", "\uff11.5"])
    def test_non_ascii_digits_exit2(self, capsys, entry):
        assert main(["rank", "--point", f"1,2,3,4,5,6,7,{entry}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --point entries must be rationals")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("point", [
        "1e-100,2e-100,3e-100,5e-100,7e-100,11e-100,13e-100,17e-100",
        "1e400,2,3,4,5,6,7,8",
    ])
    def test_verdict_is_exact_outside_the_float_range(self, capsys, point):
        code = main(["rank", "--point", point])
        assert code == 0
        assert capsys.readouterr().out == (
            "rank = 8\n"
            "genericity product F123*F124*F134*F234 is outside the float range"
            " (nonzero: generic)\n")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["solve"],
        ["superpose", "--config"],
        ["verify", "--bogus"],
        ["rank"],
        ["rank", "--point", "1,2,3,4,5,6,7,8", "extra"],
    ])
    def test_exit2_with_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: liesuper")


def test_one_parser_gives_fresh_parser_results(tmp_path, capsys, monkeypatch):
    """In-process main calls of every kind through the one cached parser give
    the exit code, stdout and stderr that a parser built per call gives."""
    config = write_config(tmp_path, "solve.json", dict(SOLVE_BASE, points=11))
    sequence = [
        ["verify"],
        ["rank", "--point", "1/2,-1/3,2,5/7,1,0,-2/5,3"],
        ["frobnicate"],
        ["solve", "--config", config],
        ["--help"],
        ["verify", "--bogus"],
        ["rank", "--point", "1/2,1/2,2,5/7,1,1,-2/5,3"],
        ["rank", "--help"],
        [],
        ["verify", "--mutate-x5"],
        ["rank"],
        ["solve", "--help"],
        ["rank", "--point", "-1,1,2,3,4,5,6,7"],
        ["solve"],
        ["rank", "--point", "1,2,3,4,5,6,7,8", "extra"],
        ["verify", "--all-fields"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(argv) for argv in sequence]

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in sequence + sequence] == fresh + fresh
    assert built.count("liesuper") == 1
    assert {code for code, _, _ in fresh} == {0, 1, 2}
