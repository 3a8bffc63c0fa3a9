"""The pair runner's summary: medians, quartiles and wins per metric."""

import importlib.util
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
