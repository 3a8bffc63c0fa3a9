"""Alternating parent/change pairs of the benchmark, summed up in one JSON file.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --out BENCH_<pr>.json

The parent revision and HEAD are exported with ``git archive`` into one
temporary directory, which is removed afterwards, so each side runs its
committed files and nothing is written into the repository's ``.git``.  For pair i of
a workload both sides run ``python3 perfbench/run.py --workload W --seed S
--seconds X --trace 0`` with the same seed S = SEED + i, one after the
other: the parent first in even pairs, the change first in odd ones.  X is
the ``run_seconds`` of HEAD's ``BENCHMARK.json``.  ``PAIRS`` holds the pairs
per workload: ten for each, so that a gain on any workload can show the
change better in nine of ten pairs, the count a claimed gain is held to.

For each workload and each end-to-end metric of the change's
``BENCHMARK.json`` the file holds both medians and quartiles, the parent's
IQR, the change's median relative to the parent's, and the pairs in which
the change read better (``wins``, ties counting for neither).  It also holds
the seeds, both commits, their ``src/liesuper`` line counts, the Python
version, the CPU count, and every run's ``correct``, ``attempted`` and
``failed``.  A run whose report has a ``headline`` (superpose-family: one
more solution by formula against integrating it) keeps its three figures,
and the workload holds their medians per side, since a cheaper direct
integration shrinks ``direct_over_formula``, the paper's ratio.  The file
is rewritten after every pair, so a cut run keeps the pairs it finished.
Once the file is complete, each run that reported ``correct: false`` or
``failed > 0`` is named on stderr by workload, seed and side, and the tool
exits 1: such a file records an incorrect program, not a speed.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = {"verify-exact": 10, "solve-sweep": 10, "superpose-family": 10}
SEED = 161  # the seed of pair 0
HEADLINE = ("formula_us_per_point", "direct_us_per_point", "direct_over_formula")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def src_lines(checkout: str) -> int:
    package = os.path.join(checkout, "src", "liesuper")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its last stdout line, parsed, with the
    headline figures of its report when it has them."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    report = os.path.join(checkout, ".perfbench_out",
                          f"{workload}-seed{seed}-trace0.json")
    with open(report) as fh:
        headline = json.load(fh).get("headline")
    if headline:
        result["headline"] = {k: headline[k] for k in HEADLINE}
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, interpolated within the runs."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: medians, quartiles, parent IQR and wins."""
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(r["parent"]["metrics"][name]["value"],
                  r["change"]["metrics"][name]["value"]) for r in runs]
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent_median": p_med,
            "change_median": c_med,
            "relative_change": (c_med - p_med) / p_med if p_med else None,
            "parent_quartiles": [p_q1, p_q3],
            "change_quartiles": [c_q1, c_q3],
            "parent_iqr": p_q3 - p_q1,
            "wins": f"{wins}/{len(pairs)}",
        }
    return out


def faults(result: dict) -> list[str]:
    """One line per run that was not correct or had failed operations."""
    lines = []
    for workload, entry in result["workloads"].items():
        for pair in entry["runs"]:
            for side in ("parent", "change"):
                run = pair[side]
                if not run["correct"] or run["failed"] > 0:
                    lines.append(f"{workload} seed {pair['seed']} {side}: correct="
                                 f"{run['correct']}, failed={run['failed']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="revision to compare HEAD with")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    commits = {side: git("rev-parse", rev).decode().strip()
               for side, rev in (("parent", args.parent), ("change", "HEAD"))}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: os.path.join(tmp, side) for side in commits}
        for side, commit in commits.items():
            export(commit, checkouts[side])
        with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
            benchmark = json.load(fh)
        metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        result = {
            "commits": commits,
            "src_lines": {s: src_lines(c) for s, c in checkouts.items()},
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seconds": seconds,
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "workloads": {},
        }
        for workload, n in PAIRS.items():
            runs = []
            entry = result["workloads"][workload] = {"seeds": [], "runs": runs}
            for i in range(n):
                seed = SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds)
                runs.append(pair)
                entry["seeds"].append(seed)
                entry["metrics"] = summary(runs, metrics)
                entry["correct"] = {s: [r[s]["correct"] for r in runs]
                                    for s in commits}
                entry["failed"] = {s: [r[s]["failed"] for r in runs]
                                   for s in commits}
                if "headline" in pair["parent"]:
                    entry["headline_medians"] = {
                        s: {k: statistics.median(r[s]["headline"][k] for r in runs)
                            for k in HEADLINE} for s in commits}
                with open(args.out, "w") as fh:
                    json.dump(result, fh, indent=2)
                    fh.write("\n")
                print(f"{workload} pair {i + 1}/{n} (seed {seed}) done",
                      file=sys.stderr)
    bad = faults(result)
    for line in bad:
        print(f"not correct: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
