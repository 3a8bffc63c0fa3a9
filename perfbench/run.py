"""Benchmark of liesuper: exact verification, direct solves and superposition.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-exact, solve-sweep, superpose-family (see NOTES.md).  The
program is imported from ``src/`` of the checkout; it needs no build.

``--trace 0`` runs the workload's closed loop for ``--seconds`` and reports
the end-to-end metrics, each timing rescaled to the reference speed of
calibrators timed every tenth of a second (``calibrate.py``).  ``--trace 1``
runs one fixed pass untraced and the same pass traced, and reports the
per-layer metrics; the fixed pass makes the exact counters repeat exactly
for a given seed.  Either way every result is checked, failures are
counted against the operations attempted, and the last line of standard
output is one JSON object.  A run report goes to ``.perfbench_out/`` (and,
when traced, every span as JSON lines).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

from calibrate import CALIBRATION, REFERENCE_S, clock
from oracle import Oracle
from spans import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 25


def program_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "liesuper" or n.startswith("liesuper.")}


def import_program():
    """Fresh import of liesuper from this checkout's src/; (package, cli)."""
    for name in program_modules():
        del sys.modules[name]
    lib = importlib.import_module("liesuper")
    cli = importlib.import_module("liesuper.cli")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise ImportError(f"liesuper was imported from {lib.__file__}, not {SRC}")
    return lib, cli


def setup(workload) -> float:
    """Import the program and build its inputs; the time it took."""
    t0 = clock()
    lib, cli = import_program()
    built = workload.build(lib)
    seconds = clock() - t0
    workload.bind(lib, cli, built)
    return seconds


def timed_setups(workload) -> tuple[list[float], list[float]]:
    """SETUP_REPEATS fresh set-ups; (raw, rescaled) seconds.

    The calibrators run after every set-up as well as on their timer, and
    each set-up is rescaled by their median over the set-up phase alone.
    """
    start = clock()
    seconds = []
    for _ in range(SETUP_REPEATS):
        seconds.append(setup(workload))  # the workload keeps the last one
        CALIBRATION.run()
    end = clock()
    kinds = ("compute", "import")
    return seconds, [CALIBRATION.rescale(s, start, end, kinds, window=0.0)
                     for s in seconds]


def run_loop(workload, seconds: float) -> None:
    """Closed loop: run the workload's steps in order until time is up.

    Every step runs once; after that a step is started only if its previous
    duration still fits in the window, and skipped if not, so a run ends
    close to ``seconds`` even when one step is long.  The window is wall
    time: it includes the calibrators' pauses.
    """
    wall = time.perf_counter
    steps = workload.steps()
    last = [0.0] * len(steps)
    workload.recording = False
    for _ in range(workload.warmup_passes):
        for k, step in enumerate(steps):
            t0 = wall()
            step()
            last[k] = wall() - t0
    workload.recording = True
    start = wall()
    i = skipped = 0
    while skipped < len(steps):
        k = i % len(steps)
        i += 1
        if i > len(steps) and wall() - start + last[k] > seconds:
            skipped += 1
            continue
        skipped = 0
        t0 = wall()
        steps[k]()
        last[k] = wall() - t0


def run_pass(workload) -> float:
    t0 = clock()
    for step in workload.steps():
        step()
    return clock() - t0


def metadata(lib, args) -> dict:
    files = sorted(f for f in os.listdir(os.path.join(SRC, "liesuper"))
                   if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        with open(os.path.join(SRC, "liesuper", f), "rb") as fh:
            data = fh.read()
        digest.update(f.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "liesuper_version": getattr(lib, "__version__", None),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "liesuper", "__init__.py")):
        print(f"perfbench: no liesuper package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), tmp)
        return measure(workload, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(workload, args) -> int:
    report: dict = {}
    if args.trace:
        setup(workload)
        workload.recording = False
        for _ in range(workload.warmup_passes):
            run_pass(workload)
        untraced = run_pass(workload)
        tracer = Tracer(workload.lib)
        tracer.install()
        try:
            workload.built = workload.build(workload.lib)  # traced set-up
            traced = run_pass(workload)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.untraced_s"] = untraced
        metrics["trace.traced_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        with CALIBRATION.periodic():
            raw_setups, setups = timed_setups(workload)
            gc.collect()
            run_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workload.end_to_end()
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb
        workload.raw = True
        report["unrescaled"] = dict(workload.end_to_end(),
                                    setup_s=statistics.median(raw_setups))
        workload.raw = False
        report["calibration"] = {
            kind: {"reference_s": REFERENCE_S[kind], "runs": len(cal),
                   "median_s": statistics.median(cal), "min_s": min(cal),
                   "max_s": max(cal)}
            for kind, cal in CALIBRATION.seconds.items()}
        report["setup_samples_s"] = raw_setups
        report["named"] = {k: {"value": v, "unit": u, "samples": n}
                           for k, (v, u, n) in workload.named().items()}
        if hasattr(workload, "headline"):
            report["headline"] = workload.headline()

    oracle = Oracle()
    workload.check(oracle)
    attempted, failed = len(workload.ops), workload.failed()
    report.update({
        "metadata": metadata(workload.lib, args),
        "samples_s": {f"{kind}:{case}": v
                      for (kind, case), v in workload.samples.items()},
        "oracle_worst": oracle.worst,
        "oracle_references": oracle.references,
        "failures": sorted({f"{o.kind} {o.case}: {p}" for o in workload.ops
                            for p in o.problems})[:50],
    })
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = [k for k in units if metrics.get(k) is None]
    if missing:
        print(f"perfbench: no samples for {missing}; raise --seconds",
              file=sys.stderr)
        return 3
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print_summary(report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def print_summary(report: dict) -> None:
    meta = report["metadata"]
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for kind, cal in report.get("calibration", {}).items():
        print(f"# {kind} calibrator: median {1e3 * cal['median_s']:.4g} ms "
              f"over {cal['runs']} runs; timings are rescaled to "
              f"{1e3 * cal['reference_s']:.4g} ms")
    for name, m in report.get("named", {}).items():
        value = "n/a (fewer than 200 samples)" if m["value"] is None \
            else f"{m['value']:.6g} {m['unit']}"
        count = "" if m["samples"] is None else f"  (n={m['samples']})"
        print(f"{name:28s} {value}{count}")
    head = report.get("headline")
    if head:
        print(f"headline: one more solution costs {head['formula_us_per_point']:.3g}"
              f" us/point by formula vs {head['direct_us_per_point']:.3g} us/point"
              f" integrated ({head['direct_over_formula']:.3g}x) at n="
              f"{head['grid_points']}")
    print("oracle worst: " + ", ".join(f"{k}={v:.3e}"
                                      for k, v in report["oracle_worst"].items()))
    for line in report["failures"]:
        print(f"FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
