"""The pair runner's summary: medians, quartiles and wins per metric, and
its exit status when a run was not correct."""

import importlib.util
import json
import pathlib

import pytest

PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def _runs(parent, change, name="job_s"):
    """Made-up pairs of runs that read one metric."""
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}}
            for p, c in zip(parent, change)]


def _metric(better, name="job_s"):
    return {"name": name, "unit": "s", "better": better, "bound": 0.25}


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_count_for_neither_side(better):
    out = bench_pairs.summary(_runs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                              [_metric(better)])["job_s"]
    assert out["wins"] == "0/3"
    assert out["relative_change"] == 0.0


@pytest.mark.parametrize("better, wins", [("lower", "2/4"), ("higher", "1/4")])
def test_wins_follow_the_better_direction(better, wins):
    runs = _runs([10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 8.0, 10.0])
    out = bench_pairs.summary(runs, [_metric(better)])["job_s"]
    assert out["wins"] == wins
    assert (out["parent_median"], out["change_median"]) == (10.0, 9.5)
    assert out["relative_change"] == pytest.approx(-0.05)
    assert (out["better"], out["bound"], out["unit"]) == (better, 0.25, "s")


def test_a_single_run_has_equal_quartiles():
    assert bench_pairs.quartiles([4.5]) == (4.5, 4.5)
    out = bench_pairs.summary(_runs([4.5], [3.0]), [_metric("lower")])["job_s"]
    assert out["parent_quartiles"] == [4.5, 4.5]
    assert out["change_quartiles"] == [3.0, 3.0]
    assert out["parent_iqr"] == 0.0
    assert out["wins"] == "1/1"


def test_quartiles_and_iqr_of_the_parent():
    runs = _runs([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])
    out = bench_pairs.summary(runs, [_metric("lower")])["job_s"]
    assert out["parent_quartiles"] == [2.0, 4.0]
    assert out["parent_iqr"] == 2.0
    # inclusive quartiles stay within the runs: two runs 1 and 2 give
    # 1.25 and 1.75, not the 0.75 and 2.25 of extrapolation
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.75)
    assert out["wins"] == "2/5"


def test_zero_parent_median_has_no_relative_change():
    runs = _runs([0, 0, 1], [1, 2, 3], name="failed")
    out = bench_pairs.summary(runs, [_metric("lower", name="failed")])["failed"]
    assert out["parent_median"] == 0
    assert out["relative_change"] is None
    assert out["wins"] == "0/3"


def _fake_tool(monkeypatch, verdicts):
    """bench_pairs without git or perfbench: ``verdicts`` maps (side, seed)
    to (correct, failed), every other run is correct."""
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"0123abc\n")

    def export(rev, dest):
        (pathlib.Path(dest) / "src" / "liesuper").mkdir(parents=True)
        (pathlib.Path(dest) / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": [_metric("lower")]}))

    def run_once(checkout, workload, seed, seconds):
        correct, failed = verdicts.get((pathlib.Path(checkout).name, seed),
                                       (True, 0))
        return {"correct": correct, "failed": failed, "attempted": 3,
                "metrics": {"job_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "PAIRS", {"solve-sweep": 2, "verify-exact": 1})


@pytest.mark.parametrize("verdicts, lines", [
    ({}, []),
    ({("change", 162): (False, 0)},
     ["not correct: solve-sweep seed 162 change: correct=False, failed=0"]),
    ({("parent", 161): (True, 2)},
     ["not correct: solve-sweep seed 161 parent: correct=True, failed=2",
      "not correct: verify-exact seed 161 parent: correct=True, failed=2"]),
])
def test_incorrect_runs_are_named_and_exit_1(tmp_path, capsys, monkeypatch,
                                             verdicts, lines):
    _fake_tool(monkeypatch, verdicts)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", "HEAD~1", "--out", str(out)])
    assert code == (1 if lines else 0)
    written = json.loads(out.read_text())  # the file is written either way
    assert len(written["workloads"]["solve-sweep"]["runs"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("not correct")] == lines
