"""The three workloads, each a closed loop of single-process operations.

An operation starts only after the previous one has returned.  Every
operation goes through a public entry point of ``liesuper``: ``cli.main``
in-process, ``integrate``, ``reconstruct`` or ``superpose_riccati``, always
looked up on the module at call time so the traced run sees the calls.

Checks that need no reference solution run right after an operation, outside
its timed interval.  Checks against the scipy oracle run once per distinct
result after the timed loop (``check``); a repeated operation must reproduce
its first result bit for bit.

Every sample keeps its interval on the calibrated clock (``calibrate.py``);
the gated timings are the samples rescaled to the calibrator's reference
speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import statistics
from collections import defaultdict
from functools import partial

import inputs
from calibrate import CALIBRATION, clock

TOL = 1e-10  # the CLI's default integrator tolerance


class Op:
    """One attempted operation and whatever went wrong with it."""

    __slots__ = ("kind", "case", "problems")

    def __init__(self, kind: str, case=None):
        self.kind = kind
        self.case = case
        self.problems: list[str] = []


class Workload:
    """Shared bookkeeping: samples per operation kind and attempted ops."""

    name = ""
    warmup_passes = 1

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.samples: dict[tuple, list[float]] = defaultdict(list)
        self.intervals: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
        self.raw = False  # True: statistics of the unrescaled samples
        self.ops: list[Op] = []
        self.recording = True  # False during warm-up passes
        self.lib = self.cli = self.built = None

    def bind(self, lib, cli, built) -> None:
        self.lib, self.cli, self.built = lib, cli, built

    def sample(self, kind: str, case, seconds: float, start=None) -> None:
        """Record ``seconds`` spent from ``start`` (default: just now)."""
        if not self.recording:
            return
        end = clock()
        self.samples[(kind, case)].append(seconds)
        self.intervals[(kind, case)].append(
            (end - seconds if start is None else start, end))

    def times(self, key) -> list[float]:
        """The samples of one (kind, case), rescaled unless ``self.raw``."""
        if self.raw:
            return self.samples[key]
        rescale = CALIBRATION.rescale
        return [rescale(s, a, b)
                for s, (a, b) in zip(self.samples[key], self.intervals[key])]

    def per_case(self, kind, stat, cases=None) -> list[float]:
        """``stat`` of the times of each case of one kind (``None``: any kind)."""
        return [stat(self.times(key)) for key, v in self.samples.items()
                if v and kind in (None, key[0])
                and (cases is None or key[1] in cases)]

    def p50(self, kind: str, cases=None):
        """Mean of the per-case medians: what the gated timings are built from.

        The median of each case (a config, a family, a rank point), so that
        cases of different cost are never pooled: a statistic over pooled
        samples would fall in a gap between cost clusters and jump from run
        to run.  The mean over cases then weighs every case the same.
        """
        return mean(self.per_case(kind, statistics.median, cases))

    def pooled(self, kind: str) -> list[float]:
        return [x for key in list(self.samples) if key[0] == kind
                for x in self.times(key)]

    def op(self, kind: str, case=None) -> Op:
        o = Op(kind, case)
        self.ops.append(o)
        return o

    def cli_call(self, argv: list[str]):
        """``cli.main`` in-process with its output captured; (code, out, err, s)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            seconds = clock() - t0
        return code, out.getvalue(), err.getvalue(), seconds

    def write_json(self, name: str, data: dict) -> str:
        path = os.path.join(self.tmp, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def failed(self) -> int:
        return sum(1 for o in self.ops if o.problems)


def mean(xs):
    return sum(xs) / len(xs) if xs else None


def p95(xs):
    """95th percentile, only where at least ten samples lie beyond it."""
    if len(xs) < 200:
        return None
    return statistics.quantiles(xs, n=20, method="inclusive")[-1]


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def read_states(path: str) -> list[tuple[float, float]]:
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != "t,x,v":
        raise ValueError(f"unexpected CSV header in {path}")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return [(float(x), float(v)) for _, x, v in rows]


def _run_guarded(o: Op, fn):
    """Run ``fn``; an exception the workload did not expect fails the op."""
    try:
        return fn()
    except Exception as exc:  # a crash of the program is a failed operation
        o.problems.append(f"raised {type(exc).__name__}: {exc}")
        return None


# ---------------------------------------------------------------------------
# verify-exact

_RECORD = re.compile(r"\[(PASS|FAIL|WARN)\] (.*?): expected ")
# the worked example's tabulated values that direct evaluation contradicts
WORKED_EXAMPLE_WARNS = {
    "G3124", "F431", "G2134", "F124", "F324", "F312",
    "genericity product F123*F124*F134*F234",
}
X5_PAIR = "[X1,X4]"  # the stored bracket table gives [X1, X4] = X5
RANK_REPEATS = 4  # rank calls are short: more samples per step
VERIFY_REPEATS = 5  # verify and the control per verify --all-fields


def parse_verify(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """Suites of a ``verify`` text report as (title, [(status, name)])."""
    suites: list = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if i and line and set(line) == {"-"} and len(line) == len(lines[i - 1]):
            suites.append((lines[i - 1], []))
        m = _RECORD.match(line)
        if m and suites:
            suites[-1][1].append((m.group(1), m.group(2)))
    return suites


class VerifyExact(Workload):
    """verify --all-fields, verify, the --mutate-x5 control and rank."""

    name = "verify-exact"
    warmup_passes = 0

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        self.points = inputs.rank_points(rng)

    def build(self, lib):
        return None  # every command builds its own fields

    def steps(self):
        """The operations of one pass, as callables run in order."""
        verify = partial(self.verify, False)
        return [partial(self.verify, True), self.ranks] + VERIFY_REPEATS * [
            verify, self.ranks, self.mutated, self.ranks]

    def verify(self, all_fields: bool):
        kind = "verify_all" if all_fields else "verify"
        o = self.op(kind)
        argv = ["verify", "--all-fields"] if all_fields else ["verify"]
        res = _run_guarded(o, lambda: self.cli_call(argv))
        if res is None:
            return
        code, out, err, seconds = res
        self.sample(kind, None, seconds)
        if code != 0:
            o.problems.append(f"exit {code}: {err.strip()}")
        suites = parse_verify(out)
        if len(suites) != 5:
            o.problems.append(f"{len(suites)} report suites, expected 5")
            return
        warns = set()
        for title, records in suites:
            for status, name in records:
                if status == "WARN" and title.startswith("worked example"):
                    warns.add(name)
                elif status != "PASS":
                    o.problems.append(f"[{status}] {name} in {title!r}")
        if warns != WORKED_EXAMPLE_WARNS:
            o.problems.append(f"worked-example WARNs {sorted(warns)}")
        lam = [r for t, r in suites if t.startswith("exact annihilation")]
        want = 16 if all_fields else 4
        if not lam or len(lam[0]) != want:
            o.problems.append(f"annihilation suite does not hold {want} checks")

    def mutated(self):
        o = self.op("verify_mutated")
        res = _run_guarded(o, lambda: self.cli_call(["verify", "--mutate-x5"]))
        if res is None:
            return
        code, out, err, seconds = res
        self.sample("verify_mutated", None, seconds)
        if code != 1:
            o.problems.append(f"negative control exited {code}, expected 1")
        fails = {name for _, recs in parse_verify(out)
                 for status, name in recs if status == "FAIL"}
        if fails != {X5_PAIR}:
            o.problems.append(f"FAIL records {sorted(fails)}, expected {X5_PAIR}")

    def ranks(self):
        for point, expected in RANK_REPEATS * self.points:
            o = self.op("rank", point)
            res = _run_guarded(o, lambda: self.cli_call(["rank", f"--point={point}"]))
            if res is None:
                continue
            code, out, err, seconds = res
            self.sample("rank", point, seconds)
            m = re.search(r"^rank = (\d+)$", out, re.M)
            if code != 0 or not m:
                o.problems.append(f"exit {code}: {err.strip()}")
            elif int(m.group(1)) != expected:
                o.problems.append(f"rank {m.group(1)} at {point}, expected {expected}")

    def check(self, oracle) -> None:
        pass  # every verdict is exact and was taken right after its call

    def end_to_end(self):
        return {
            "job_s": self.p50("verify_all"),
            "main_ms_p50": _ms(self.p50("verify")),
            "side_ms_p50": _ms(self.p50("rank")),
            "cli_ms_p50": _ms(self.p50("verify_mutated")),
        }

    def named(self):
        n = {k: len(self.pooled(k))
             for k in ("verify_all", "verify", "rank", "verify_mutated")}
        return {
            "verify_all_s": (self.p50("verify_all"), "s", n["verify_all"]),
            "verify_s": (self.p50("verify"), "s", n["verify"]),
            "rank_ms_p50": (_ms(self.p50("rank")), "ms", n["rank"]),
            "verify_mutated_s": (self.p50("verify_mutated"), "s",
                                 n["verify_mutated"]),
        }


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


# ---------------------------------------------------------------------------
# solve-sweep


class SolveSweep(Workload):
    """Seeded ``liesuper solve`` configs in a grid-bound and a tol-bound regime."""

    name = "solve-sweep"

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        self.cases = inputs.solve_cases(rng)
        self.paths = {}
        for i, case in enumerate(self.cases):
            out = os.path.join(tmp, f"solve-{i}.csv")
            rep = os.path.join(tmp, f"solve-{i}.json")
            cfg = self.write_json(f"solve-{i}-config.json", case.config(out, rep))
            self.paths[case.name] = (cfg, out, rep)
        self.first: dict[str, tuple[list, dict]] = {}

    def build(self, lib):
        return [lib.lift_sode(c.equation.family, c.equation.coefficients,
                              interval=c.interval) for c in self.cases]

    def steps(self):
        return [partial(self.solve, case) for case in self.cases]

    def solve(self, case):
        o = self.op(f"solve_{case.regime}", case.name)
        cfg, out_csv, report = self.paths[case.name]
        res = _run_guarded(o, lambda: self.cli_call(["solve", "--config", cfg]))
        if res is None:
            return
        code, out, err, seconds = res
        self.sample(f"solve_{case.regime}", case.name, seconds)
        if code != 0:
            o.problems.append(f"exit {code}: {err.strip()}")
            return
        res = _run_guarded(o, lambda: (read_states(out_csv), read_json(report)))
        if res is None:
            return
        states, rep = res
        if case.name not in self.first:
            self.first[case.name] = (states, rep)
        elif (states, rep) != self.first[case.name]:
            o.problems.append("output differs from the first run of this config")
        if rep["status"] != "ok" or rep["grid_points"] != case.points:
            o.problems.append(f"report {rep}")
        if case.regime == "grid" and not rep["fd_residual"] <= 1e-6:
            o.problems.append(f"reported fd_residual {rep['fd_residual']}")

    def check(self, oracle) -> None:
        verdicts = {}
        for case in self.cases:
            if case.name not in self.first:
                continue
            states, _ = self.first[case.name]
            times = inputs.grid(*case.interval, case.points)
            problems = oracle.against_reference(case.equation, case.initial,
                                                times, states)
            if case.regime == "grid":  # a 0.1 grid is too coarse for 1e-6
                problems += oracle.residual(case.equation, times, states)
            verdicts[case.name] = problems
        for o in self.ops:
            o.problems += verdicts.get(o.case, [])

    def riccati(self) -> set[str]:
        return {c.name for c in self.cases if c.equation.family == "riccati"}

    def end_to_end(self):
        every = self.per_case(None, statistics.median)
        return {
            "job_s": sum(every) if every else None,
            "main_ms_p50": _ms(self.p50("solve_grid")),
            "side_ms_p50": _ms(self.p50("solve_tol")),
            "cli_ms_p50": _ms(self.p50("solve_grid", self.riccati())),
        }

    def named(self):
        grid, tol = self.pooled("solve_grid"), self.pooled("solve_tol")
        every = self.per_case(None, statistics.median)
        return {
            "solve_ms_p50": (_ms(mean(every)), "ms", len(grid + tol)),
            "solve_ms_p95": (_ms(p95(grid + tol)), "ms", len(grid + tol)),
            "solve_grid_ms_p50": (_ms(self.p50("solve_grid")), "ms", len(grid)),
            "solve_tol_ms_p50": (_ms(self.p50("solve_tol")), "ms", len(tol)),
            "solve_riccati_ms_p50": (
                _ms(self.p50("solve_grid", self.riccati())), "ms", None),
            "sweep_s": (sum(every), "s", None),
        }


# ---------------------------------------------------------------------------
# superpose-family

DIRECT_PER_FAMILY = 4  # fixed targets also integrated directly
CLI_REPEATS = 3  # superpose CLI calls are short: more samples per pass


class SuperposeFamily(Workload):
    """Four integrations, then many more solutions by the formula."""

    name = "superpose-family"

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        self.families = inputs.families(rng)
        self.grid = inputs.grid(*inputs.FAMILY_INTERVAL, inputs.FAMILY_POINTS)
        self.readme_eq = inputs.readme_equation()
        self.readme_out = os.path.join(tmp, "readme-out.csv")
        self.readme_report = os.path.join(tmp, "readme-report.json")
        self.readme_cfg = self.write_json("readme-config.json", dict(
            inputs.README_SUPERPOSE, output=self.readme_out,
            report=self.readme_report))
        self.csv_inputs: dict[str, list[str]] = {}
        self.inputs_cfg: dict[str, tuple[str, str]] = {}
        for k, fam in enumerate(self.families):
            csvs = [os.path.join(tmp, f"fam{k}-p{j}.csv") for j in range(4)]
            out = os.path.join(tmp, f"fam{k}-out.csv")
            cfg = self.write_json(f"fam{k}-inputs-config.json", {
                "family": fam.equation.family,
                "coefficients": fam.equation.coefficients,
                "interval": list(inputs.FAMILY_INTERVAL),
                "points": inputs.FAMILY_POINTS,
                "inputs": csvs,
                "constants": list(fam.constants(fam.fixed_targets[0])),
                "output": out,
            })
            self.csv_inputs[fam.name] = csvs
            self.inputs_cfg[fam.name] = (cfg, out)
        self.csv_written = False
        self.first: dict[tuple, object] = {}  # case -> first trajectory

    def build(self, lib):
        built = {}
        for fam in self.families:
            eq = fam.equation
            sys_ = lib.lift_sode(eq.family, eq.coefficients,
                                 interval=inputs.FAMILY_INTERVAL)
            rc = None
            if eq.family == "riccati":
                c = eq.coefficients
                rc = lib.build_riccati(c["a0"], c["a1"], c["a2"], c["a3"],
                                       interval=inputs.FAMILY_INTERVAL)
            built[fam.name] = (sys_, rc)
        return built

    def steps(self):
        return [self.one_pass]

    def _same_as_first(self, o: Op, case, states) -> None:
        if case not in self.first:
            self.first[case] = states
        elif states != self.first[case]:
            o.problems.append("result differs from the first run of this case")

    def _reconstruct(self, fam, trajs, constants=None, target=None):
        lib = self.lib
        _, rc = self.built[fam.name]
        if rc is not None:
            return lib.superpose_riccati(rc, trajs, constants=constants,
                                         target=target)
        return lib.reconstruct(lib.SuperposeProblem(trajs, constants=constants,
                                                    target=target))

    def one_pass(self):
        lib = self.lib
        family_trajs = {}
        for fam in self.families:
            job, start = 0.0, clock()
            sys_, _ = self.built[fam.name]
            trajs = []
            for j, ic in enumerate(fam.particulars):
                o = self.op("particular", (fam.name, "p", j))
                t0 = clock()
                traj = _run_guarded(o, lambda: lib.integrate(sys_, ic, 0.0,
                                                             self.grid, TOL))
                job += clock() - t0
                if traj is None:
                    return
                self._same_as_first(o, o.case, traj.states)
                trajs.append(traj)
            family_trajs[fam.name] = trajs
            runs = [("fixed", i, t) for i, t in enumerate(fam.fixed_targets)]
            runs += [("fitted", i, t) for i, t in enumerate(fam.fitted_targets)]
            for mode, i, target in runs:
                o = self.op("extra", (fam.name, mode, i))
                kw = ({"constants": fam.constants(target)} if mode == "fixed"
                      else {"target": target})
                t0 = clock()
                res = _run_guarded(o, lambda: self._reconstruct(fam, trajs, **kw))
                seconds = clock() - t0
                job += seconds
                if res is None:
                    continue
                self.sample("extra", fam.name, seconds)
                if mode == "fixed" and i < DIRECT_PER_FAMILY:
                    self.sample("headline_extra", fam.name, seconds)
                self._same_as_first(o, o.case, res.trajectory.states)
            self.sample("family", fam.name, job, start)
            for i, target in enumerate(fam.fixed_targets[:DIRECT_PER_FAMILY]):
                o = self.op("direct", (fam.name, "direct", i))
                t0 = clock()
                traj = _run_guarded(o, lambda: lib.integrate(sys_, target, 0.0,
                                                             self.grid, TOL))
                seconds = clock() - t0
                if traj is None:
                    continue
                self.sample("direct", fam.name, seconds)
                self._same_as_first(o, o.case, traj.states)
        if not self.csv_written:  # the inputs configs read these back
            for fam in self.families:
                for traj, path in zip(family_trajs[fam.name],
                                      self.csv_inputs[fam.name]):
                    traj.to_csv(path)
            self.csv_written = True
        for _ in range(CLI_REPEATS):
            for fam in self.families:
                self.superpose_cli(("inputs", fam.name),
                                   self.inputs_cfg[fam.name][0])
            self.superpose_cli(("readme",), self.readme_cfg)
        self.degenerate_control(family_trajs[self.families[0].name])

    def superpose_cli(self, case, cfg):
        o = self.op("superpose_cli", case)
        res = _run_guarded(o, lambda: self.cli_call(["superpose", "--config", cfg]))
        if res is None:
            return
        code, out, err, seconds = res
        self.sample("superpose_cli", case, seconds)
        if code != 0:
            o.problems.append(f"exit {code}: {err.strip()}")
            return
        if case[0] == "inputs":
            states = _run_guarded(
                o, lambda: read_states(self.inputs_cfg[case[1]][1]))
        else:
            states = _run_guarded(o, lambda: read_states(self.readme_out))
            rep = _run_guarded(o, lambda: read_json(self.readme_report)) or {}
            for key in ("max_error_vs_reference", "fd_residual"):
                if not rep.get(key, float("nan")) <= 1e-6:
                    o.problems.append(f"reported {key} {rep.get(key)}")
        if states is not None:
            self._same_as_first(o, case, states)

    def degenerate_control(self, trajs):
        """Negative control: a duplicated particular solution is Degenerate."""
        o = self.op("degenerate_control")
        fam = self.families[0]
        lib = self.lib
        dup = [trajs[0], trajs[0], trajs[2], trajs[3]]
        try:
            lib.reconstruct(lib.SuperposeProblem(
                dup, constants=fam.constants(fam.fixed_targets[0])))
        except lib.Degenerate:
            return
        except Exception as exc:
            o.problems.append(f"raised {type(exc).__name__}, expected Degenerate")
            return
        o.problems.append("a duplicated particular solution was not Degenerate")

    def check(self, oracle) -> None:
        lib = self.lib
        verdicts: dict = {}
        grid = self.grid
        for fam in self.families:
            eq = fam.equation
            parts = [self.first.get((fam.name, "p", j)) for j in range(4)]
            if any(p is None for p in parts):
                continue
            for j, ic in enumerate(fam.particulars):
                verdicts[(fam.name, "p", j)] = (
                    oracle.against_reference(eq, ic, grid, parts[j])
                    + oracle.residual(eq, grid, parts[j]))
            targets = {("fixed", i): t for i, t in enumerate(fam.fixed_targets)}
            targets.update({("fitted", i): t
                            for i, t in enumerate(fam.fitted_targets)})
            for (mode, i), target in targets.items():
                case = (fam.name, mode, i)
                states = self.first.get(case)
                if states is None:
                    continue
                consts = fam.constants(target)
                problems = oracle.against_reference(eq, target, grid, states)
                problems += oracle.drift(eq, grid, states, parts, consts)
                if eq.a3_is_one:  # must be the time-independent path, bit for bit
                    trajs = [lib.Trajectory(list(grid), p, tol=TOL) for p in parts]
                    kw = ({"constants": consts} if mode == "fixed"
                          else {"target": target})
                    probe = Op("a3=1 bit-match")
                    plain = _run_guarded(probe, lambda: lib.reconstruct(
                        lib.SuperposeProblem(trajs, **kw)))
                    problems += probe.problems
                    if plain and plain.trajectory.states != states:
                        problems.append("a3 = 1 result differs from reconstruct")
                verdicts[case] = problems
            for i, target in enumerate(fam.fixed_targets[:DIRECT_PER_FAMILY]):
                case = (fam.name, "direct", i)
                states = self.first.get(case)
                if states is None:
                    continue
                problems = oracle.against_reference(eq, target, grid, states)
                problems += oracle.residual(eq, grid, states)
                problems += oracle.drift(eq, grid, states, parts,
                                         fam.constants(target))
                verdicts[case] = problems
            inputs_case = ("inputs", fam.name)
            if inputs_case in self.first:
                same = self.first[inputs_case] == self.first.get(
                    (fam.name, "fixed", 0))
                verdicts[inputs_case] = [] if same else [
                    "CSV-inputs result differs from the in-memory reconstruction"]
        if ("readme",) in self.first:
            cfg = inputs.README_SUPERPOSE
            t0, t1 = cfg["interval"]
            times = inputs.grid(float(t0), float(t1), cfg["points"])
            states = self.first[("readme",)]
            verdicts[("readme",)] = oracle.against_reference(
                self.readme_eq, cfg["target"], times, states)
        for o in self.ops:
            o.problems += verdicts.get(o.case, [])

    def end_to_end(self):
        family = self.per_case("family", statistics.median)
        return {
            "job_s": sum(family) if family else None,
            "main_ms_p50": _ms(self.p50("extra")),
            "side_ms_p50": _ms(self.p50("direct")),
            "cli_ms_p50": _ms(self.p50("superpose_cli")),
        }

    def named(self):
        extra = self.pooled("extra")
        return {
            "extra_solution_ms_p50": (_ms(self.p50("extra")), "ms", len(extra)),
            "extra_solution_ms_p95": (_ms(p95(extra)), "ms", len(extra)),
            "direct_solution_ms_p50": (_ms(self.p50("direct")), "ms",
                                       len(self.pooled("direct"))),
            "superpose_cli_ms_p50": (_ms(self.p50("superpose_cli")), "ms",
                                     len(self.pooled("superpose_cli"))),
            "family_s": (sum(self.per_case("family", statistics.median)), "s",
                         len(self.pooled("family"))),
        }

    def headline(self):
        """One more solution by formula vs integrating it, same targets and grid.

        Medians, as a user on a quiet machine would see them; not gated.
        """
        extra, direct = self.p50("headline_extra"), self.p50("direct")
        if not extra or not direct:
            return None
        n = len(self.grid)
        return {
            "grid_points": n,
            "formula_us_per_point": 1e6 * extra / n,
            "direct_us_per_point": 1e6 * direct / n,
            "direct_over_formula": direct / extra,
            "samples": [len(self.pooled("headline_extra")),
                        len(self.pooled("direct"))],
        }


WORKLOADS = {w.name: w for w in (VerifyExact, SolveSweep, SuperposeFamily)}
