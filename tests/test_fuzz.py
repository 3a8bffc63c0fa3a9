"""Fuzz the command line: every input ends in a result or one error line.

A ``solve`` or ``superpose`` case starts from a valid config and changes
some of its keys, taken from the CLI's own key tables so that a new key is
fuzzed too: each is dropped, given a value of the wrong type, or given an
edge-case value.  Every edge-case value is also run on its own, as an
explicit example.  A ``rank`` case is a drawn point.  Each case runs
through ``cli.main`` in process and must exit with a documented code, print
nothing to stderr on exit 0 or 1 and exactly one ``error:`` line otherwise,
and finish within ``CASE_SECONDS``.
"""

import json
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from liesuper import cli, odeint

# the slowest legitimate case spends the whole step budget (exit 6)
CASE_SECONDS = 2.0

NAN, INF = float("nan"), float("inf")
WRONG_TYPES = [None, True, "x", [], {}, 1.5, -3]
EXPRESSIONS = [
    "0", "sin(t)", "0.4*sin(2*t) - 1/10", "1 + t^2/4", "-1", "1/(t-0.5)",
    "exp(50*t)", "2^1000", "sqrt(t - 2)", "t +", "q*t",
    "(" * 70 + "t" + ")" * 70, "sin(" * 70 + "t" + ")" * 70,
]
PAIRS = [[0.1, 0.2], [1, -1], [0, 0], [1e308, 1e308], [1], [1, "a"],
         [NAN, 0], [True, 0], [0.1, 0.2, 0.3]]
ICS = [[0.1, 0.2], [0.3, 0.1], [0.3, -0.1], [-0.2, 0.4]]
INPUTS = [f"p{i}.csv" for i in range(4)]  # the solutions from ICS

# edge-case values by key; a key missing here gets only drops and wrong types
VALUES = {
    "family": ["exam2", "general", "riccati", "nope"],
    "coefficients": ([{"f": e} for e in EXPRESSIONS]
                     + [{"a3": "1 + t^2/4"}, {"zz": "1"}, {"f": 1e308},
                        {"f": 10**400}, {"f": "sin(t)", "g": "1"}]),
    "interval": [[1, 0], [0.5, 0.5], [100000000000000, 100000000000001],
                 [0, 1e14], [0, 10], [-1, 1], [0], [0, "a"], [0, NAN],
                 [0, 10**400]],
    "points": [0, 1, 2, 7, 11, 101],
    "tol": [0, -1, 5e-324, 1e-300, INF, NAN, 1e-6, 1],
    "eps_gen": [0, -1, 1e300, INF, NAN],
    "initial": PAIRS,
    "initial_conditions": [ICS[:3], ICS + ICS[:1], ICS[:3] + [[0.3]],
                           ICS[:1] * 4, ICS[:3] + [[1e308, 1e308]]],
    "inputs": [INPUTS[:3], INPUTS[:1] * 4, INPUTS[:3] + [1]]
              + [INPUTS[:3] + [bad] for bad in
                 ("header.csv", "empty.csv", "row.csv", "missing.csv")],
    "constants": PAIRS,
    "target": PAIRS,
    "fit_time": [0, 0.5, 1, 0.123, 1e300],
    "output": ["o.csv", "nodir/o.csv", "."],
    "report": ["r.json", "nodir/r.json", "."],
}

BASES = [
    ("solve", cli._SOLVE_KEYS,
     {"family": "mdpi", "coefficients": {"f": "sin(t)"},
      "initial": [0.1, 0.2], "interval": [0, 1], "points": 11}),
    ("superpose", cli._SUPERPOSE_KEYS,
     {"family": "mdpi", "interval": [0, 1], "points": 11,
      "inputs": INPUTS, "target": [0.05, -0.3]}),
    ("superpose", cli._SUPERPOSE_KEYS,
     {"family": "mdpi", "interval": [0, 1], "points": 11,
      "initial_conditions": ICS, "constants": [0.3, 0.7]}),
]


def _case(command, cfg):
    return [command, "--config", "c.json"], cfg


@st.composite
def config_cases(draw):
    command, keys, cfg = draw(st.sampled_from(BASES))
    cfg = dict(cfg)
    for key in draw(st.sets(st.sampled_from(sorted(keys)), max_size=3)):
        change = draw(st.sampled_from(["drop", "wrong type", "edge", "edge"]))
        if change == "drop":
            cfg.pop(key, None)
        elif change == "wrong type" or key not in VALUES:
            cfg[key] = draw(st.sampled_from(WRONG_TYPES))
        else:
            cfg[key] = draw(st.sampled_from(VALUES[key]))
    return _case(command, cfg)


ENTRIES = st.sampled_from(["1", "2", "-1", "0", "3/7", "-5/2", "0.5", "1e-5",
                           "1_0", "1e4300"]) | st.integers(-99, 99).map(str)
BAD_ENTRIES = ["1e200000", "1e-200000", "abc", "1/0", "", "--x"]


@st.composite
def rank_cases(draw):
    entries = draw(st.lists(ENTRIES, min_size=8, max_size=8))
    change = draw(st.sampled_from(["none", "none", "bad entry", "count"]))
    if change == "bad entry":
        entries[draw(st.integers(0, 7))] = draw(st.sampled_from(BAD_ENTRIES))
    elif change == "count":
        entries = entries[:draw(st.integers(0, 7))] or entries + ["1"]
    point = ",".join(entries)
    form = draw(st.sampled_from([["--point", point], [f"--point={point}"]]))
    return ["rank", *form], None


def _each_edge_value(test):
    """``test`` with one explicit example per edge-case value, on the first
    base whose config has its key, else the first that takes the key."""
    for key, values in VALUES.items():
        command, _, base = next(
            b for b in sorted(BASES, key=lambda b: key not in b[2])
            if key in b[1])
        for value in values:
            test = example(_case(command, dict(base, **{key: value})))(test)
    return test


def _write_inputs(directory):
    grid = [k / 10 for k in range(11)]
    for ic, path in zip(ICS, INPUTS):
        odeint.integrate(odeint.lift_sode("mdpi"), ic, 0.0, grid,
                         1e-10).to_csv(directory / path)
    (directory / "header.csv").write_text("t,x\n0,1\n")
    (directory / "empty.csv").write_text("t,x,v\n")
    (directory / "row.csv").write_text("t,x,v\n0,1,2\n0.1,1\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(config_cases(), config_cases(), rank_cases()))
@_each_edge_value
def test_every_input_ends_in_a_result_or_one_error_line(tmp_path, capsys,
                                                        monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / INPUTS[0]).exists():
        _write_inputs(tmp_path)
    argv, cfg = case
    if cfg is not None:
        (tmp_path / "c.json").write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in range(7)
    if code in (0, 1):
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err
    assert seconds < CASE_SECONDS, (argv, cfg, seconds)
