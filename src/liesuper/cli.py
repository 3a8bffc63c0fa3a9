"""Config-driven batch command line: verify, solve, superpose, rank.

Exit codes are a stable contract:

====  =====================================================
code  meaning
====  =====================================================
0     success
1     a verification check FAILed
2     configuration or expression parse error
3     finite-time blow-up detected (t* reported)
4     coefficient constraint violated
5     degenerate configuration in the superposition machinery
6     integration step budget exceeded (likely stiff; t reported)
====  =====================================================

Every run writes a machine-readable JSON report next to its primary output;
re-running with the same config reproduces identical outputs.  The
environment variables ``LIESUPER_TOL`` and ``LIESUPER_EPS_GEN`` override the
default integrator tolerance and genericity guard when the config does not
set them explicitly.  ``tol`` must be finite and positive, ``eps_gen`` finite
and non-negative, wherever they come from; anything else exits 2 before any
integration.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import re
import sys
from fractions import Fraction

from .algebra import (
    Report,
    builtin_fields,
    verify_isomorphism,
    verify_paper_table,
    verify_scheme,
)
from .coeffexpr import DomainError, ParseError
from .exactpoly import Polynomial, VectorField, prolong, rank_at
from .odeint import (
    FAMILIES,
    BlowUp,
    ConstraintViolation,
    NonFinite,
    StepBudgetExceeded,
    Trajectory,
    integrate,
    lift_sode,
    residual,
)
from .riccati import RiccatiCoeffs, superpose_riccati
from .superpose import (
    EPS_GEN,
    Degenerate,
    SuperposeProblem,
    genericity_product,
    reconstruct,
    verify_lambda_annihilation,
)
from .worked_example import worked_example_report

__all__ = ["main", "cmd_verify", "cmd_solve", "cmd_superpose", "cmd_rank"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CONSTRAINT = 4
EXIT_DEGENERATE = 5
EXIT_BUDGET = 6


# largest grid a config may ask for: 50x the 2,001 points the benchmark runs
MAX_POINTS = 100_001

# Python refuses integer strings of more than 4,300 digits, but an exponent gets
# round that (Fraction("1e200000") has 200,001 digits), and so does a decimal
# part; a rank entry's numerator and denominator as written are held to one digit
# more than the limit, which still admits 1e4300
MAX_DIGITS = 4301
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:e([-+]?[\d_]+))?\s*", re.I)


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str, allowed: dict[str, type | tuple]) -> dict:
    """Load a JSON config, rejecting unknown keys (no silent typos)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {unknown}; allowed: {sorted(allowed)}"
        )
    for key, types in allowed.items():
        if key not in raw:
            continue
        # JSON true/false parse as bool, an int subclass; no key takes one
        if isinstance(raw[key], bool) or not isinstance(raw[key], types):
            raise ConfigError(f"config key {key!r} has the wrong type")
    return raw


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _finite_number(value) -> bool:
    """A JSON number (not true/false) that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _setting(cfg: dict, key: str, env: str, default: float,
             positive: bool) -> float:
    """cfg[key], else $env, else default: finite, and > 0 or >= 0."""
    if key in cfg:
        raw, source = cfg[key], f"config key {key!r}"
    else:
        raw, source = os.environ.get(env, repr(default)), env
    try:
        value = float(raw)
    except (ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{source} must be a finite number {bound}, got {raw!r}")
    return value


def _tol(cfg: dict) -> float:
    return _setting(cfg, "tol", "LIESUPER_TOL", 1e-10, positive=True)


def _pair(value, message: str) -> tuple[float, float]:
    """A JSON list of two finite numbers as floats; else ConfigError(message)."""
    if not (isinstance(value, list) and len(value) == 2
            and all(map(_finite_number, value))):
        raise ConfigError(message)
    return float(value[0]), float(value[1])


def _grid(cfg: dict) -> tuple[float, float, list[float]]:
    message = "interval must be [t0, t1] with t0 < t1"
    t0, t1 = _pair(_require(cfg, "interval"), message)
    if not t0 < t1:
        raise ConfigError(message)
    points = int(cfg.get("points", 201))
    if points < 2:
        raise ConfigError("points must be at least 2")
    if points > MAX_POINTS:
        raise ConfigError(f"points must be at most {MAX_POINTS}")
    grid = [t0 + (t1 - t0) * i / (points - 1) for i in range(points)]
    grid[-1] = t1
    return t0, t1, grid


def _coeff_exprs(cfg: dict) -> dict:
    coeffs = cfg.get("coefficients", {})
    if not isinstance(coeffs, dict) or not all(
        isinstance(c, str) or _finite_number(c) for c in coeffs.values()
    ):
        raise ConfigError(
            "coefficients must be an object of name -> expression or finite number"
        )
    return coeffs


def _build_system(cfg: dict, interval):
    family = _require(cfg, "family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return lift_sode(family, _coeff_exprs(cfg), interval=interval)


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError while writing ``path`` into a ConfigError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any work, an output path that cannot be written.

    The parent directory must exist and be writable, and the path must not
    be a directory or a read-only file.  Nothing is created or truncated.
    """
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(
            f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write_report(path: str | None, report_dict: dict, out) -> None:
    if path:
        with _writing(path), open(path, "w") as fh:
            json.dump(report_dict, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {path}", file=out)


# ---------------------------------------------------------------------------
# verify


def _mutated_sl3_fields() -> list[VectorField]:
    """X1..X8 with a seeded perturbation of X5 (negative-control hook)."""
    fields = builtin_fields("sl3-family")
    x5 = fields[4]
    coords = x5.coords
    bump = Polynomial(coords, {(1, 0): Fraction(1)})  # add x to the d/dx part
    fields[4] = VectorField([x5.components[0] + bump, x5.components[1]], coords)
    return fields


def cmd_verify(args) -> int:
    """Run every machine-computable verification suite and write reports."""
    fields = _mutated_sl3_fields() if args.mutate_x5 else None
    reports: list[Report] = [
        verify_paper_table(fields=fields),
        verify_isomorphism(fields=fields),
        verify_scheme(),
        verify_lambda_annihilation(all_fields=args.all_fields, fields=fields),
        worked_example_report(t=1.0),
    ]
    text = "\n\n".join(r.to_text() for r in reports)
    print(text)
    passed = all(r.passed for r in reports)

    out_dir = args.output_dir
    if out_dir:
        with _writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "verify_report.txt"), "w") as fh:
                fh.write(text + "\n")
            with open(os.path.join(out_dir, "verify_report.json"), "w") as fh:
                json.dump(
                    {"passed": passed, "suites": [r.to_dict() for r in reports]},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# solve

_SOLVE_KEYS = {
    "family": str,
    "coefficients": dict,
    "initial": list,
    "interval": list,
    "points": int,
    "tol": (int, float),
    "output": str,
    "report": str,
}


def cmd_solve(args, out=None) -> int:
    """Integrate one configured equation and write the trajectory CSV."""
    cfg = _load_config(args.config, _SOLVE_KEYS)
    t0, t1, grid = _grid(cfg)
    ic = _pair(_require(cfg, "initial"), "initial must be [x0, v0]")
    tol = _tol(cfg)
    sys_ = _build_system(cfg, (t0, t1))
    _check_writable(cfg.get("output"), cfg.get("report"))

    traj = integrate(sys_, ic, t0, grid, tol)

    output = cfg.get("output")
    if output:
        with _writing(output):
            traj.to_csv(output)
        print(f"trajectory written to {output}", file=out)
    else:
        print("t,x,v", file=out)
        for t, (x, v) in zip(traj.times, traj.states):
            print(f"{t:.17g},{x:.17g},{v:.17g}", file=out)

    res = residual(sys_, traj) if len(traj) >= 7 else None
    _write_report(
        cfg.get("report"),
        {
            "command": "solve",
            "family": sys_.family,
            "tol": tol,
            "steps": traj.steps,
            "grid_points": len(traj),
            "fd_residual": res,
            "status": traj.status,
        },
        out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# superpose

_SUPERPOSE_KEYS = {
    "family": str,
    "coefficients": dict,
    "interval": list,
    "points": int,
    "tol": (int, float),
    "eps_gen": (int, float),
    "initial_conditions": list,
    "inputs": list,
    "constants": list,
    "target": list,
    "fit_time": (int, float),
    "output": str,
    "report": str,
}


def _particular_trajectories(cfg: dict, sys_, t0, grid, tol) -> list[Trajectory]:
    ics = cfg.get("initial_conditions")
    inputs = cfg.get("inputs")
    if (ics is None) == (inputs is None):
        raise ConfigError("give exactly one of initial_conditions / inputs")
    if ics is not None:
        message = "initial_conditions must be four [x, v] pairs"
        if len(ics) != 4:
            raise ConfigError(message)
        ics = [_pair(ic, message) for ic in ics]
        return [integrate(sys_, ic, t0, grid, tol) for ic in ics]
    if len(inputs) != 4 or not all(isinstance(p, str) for p in inputs):
        raise ConfigError("inputs must name four trajectory CSV files")
    try:
        trajs = [Trajectory.from_csv(p) for p in inputs]
    except OSError as exc:
        raise ConfigError(f"cannot read input trajectory: {exc}") from None
    for path, traj in zip(inputs, trajs):
        if not len(traj):
            raise ConfigError(f"input trajectory {path} has no data rows")
    return trajs


def cmd_superpose(args, out=None) -> int:
    """Reconstruct a solution from four particular ones; write CSV + report."""
    cfg = _load_config(args.config, _SUPERPOSE_KEYS)
    t0, t1, grid = _grid(cfg)
    tol = _tol(cfg)
    eps_gen = _setting(cfg, "eps_gen", "LIESUPER_EPS_GEN", EPS_GEN, positive=False)
    sys_ = _build_system(cfg, (t0, t1))

    constants = cfg.get("constants")
    target = cfg.get("target")
    if constants is not None:
        constants = _pair(constants, "constants must be [lam1, lam2]")
    if target is not None:
        target = _pair(target, "target must be [x, v]")

    _check_writable(cfg.get("output"), cfg.get("report"))

    trajs = _particular_trajectories(cfg, sys_, t0, grid, tol)
    if cfg.get("inputs") is not None:
        grid = trajs[0].times  # reconstruction runs on the CSV grid

    fit_time = cfg.get("fit_time")

    if sys_.family == "riccati":
        rc = RiccatiCoeffs(**sys_.coeffs, interval=(t0, t1))
        result = superpose_riccati(
            rc, trajs, constants=constants, target=target,
            fit_time=fit_time, eps_gen=eps_gen,
        )
    else:
        problem = SuperposeProblem(
            trajs, constants=constants, target=target,
            fit_time=fit_time, eps_gen=eps_gen,
        )
        result = reconstruct(problem)

    output = cfg.get("output")
    if output:
        with _writing(output):
            result.trajectory.to_csv(output)
        print(f"reconstruction written to {output}", file=out)

    report = {
        "command": "superpose",
        "family": sys_.family,
        "tol": tol,
        "eps_gen": eps_gen,
        **result.to_dict(),
        "genericity_product_at_start": genericity_product(
            [traj.states[0] for traj in trajs]
        ),
    }
    if target is not None:
        # the reference starts from the target where it was fitted, and the
        # integrator runs forward only: compare from the fitting time on
        i_fit = 0 if fit_time is None else grid.index(fit_time)
        reference = integrate(sys_, target, grid[i_fit], grid[i_fit:], tol)
        max_err = max(
            max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for a, b in zip(result.trajectory.states[i_fit:], reference.states)
        )
        report["max_error_vs_reference"] = max_err
        if len(result.trajectory) >= 7:
            report["fd_residual"] = residual(sys_, result.trajectory)
        print(f"max error vs directly integrated target: {max_err:.3e}", file=out)
    print(f"lam1={result.lam1:.12g} lam2={result.lam2:.12g} "
          f"min|den|={result.min_denominator:.3e}", file=out)
    _write_report(cfg.get("report"), report, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rank


def _rational(text: str) -> Fraction:
    """text as a Fraction, refused first if written out it needs too many digits."""
    decimal = _DECIMAL.fullmatch(text)  # p/q has no exponent: Python bounds p and q
    if decimal:
        whole, frac, exp = (g.replace("_", "") if g else "" for g in decimal.groups())
        scale = int(exp or 0) - len(frac)  # the value is (whole frac) * 10**scale
        numerator = len((whole + frac).lstrip("0")) + max(scale, 0)
        if max(numerator, 1 - min(scale, 0)) > MAX_DIGITS:
            raise ValueError(f"{text[:20]!r} needs more than {MAX_DIGITS} digits")
    return Fraction(text)


def cmd_rank(args, out=None) -> int:
    """Exact rank of the prolonged fields on four copies at a rational point.

    The point is x1,x2,x3,x4,v1,v2,v3,v4 (8 comma-separated rationals).
    """
    parts = [p.strip() for p in args.point.split(",")]
    if len(parts) != 8:
        raise ConfigError("--point needs 8 comma-separated rationals "
                          "(x1..x4,v1..v4)")
    try:
        values = [_rational(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"--point entries must be rationals: {exc}")

    fields = builtin_fields("sl3-family")
    prolonged = [prolong(X, 4) for X in fields]
    # prolonged coordinate order is (x0..x3, v0..v3): exactly the input order
    rank = rank_at(prolonged, values)

    # exact: f_abc uses only + - *, so the verdict is free of rounding
    product = genericity_product([(values[a], values[4 + a]) for a in range(4)])
    verdict = "nonzero: generic" if product else "ZERO: degenerate"
    try:
        approx = float(product)
    except OverflowError:
        approx = None
    if approx is None or (product and not approx):  # overflow or underflow
        shown = "is outside the float range"
    else:
        shown = f"= {approx:.12g}"
    print(f"rank = {rank}", file=out)
    print(f"genericity product F123*F124*F134*F234 {shown} ({verdict})", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesuper",
        description="verify the sl(3,R) structure and run superposition rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all verification suites")
    p_verify.add_argument("--output-dir", default=None,
                          help="directory for verify_report.{txt,json}")
    p_verify.add_argument("--all-fields", action="store_true",
                          help="check annihilation for all eight fields")
    p_verify.add_argument("--mutate-x5", action="store_true",
                          help="negative control: perturb X5 before verifying")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="integrate one configured equation")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sup = sub.add_parser("superpose",
                           help="reconstruct a solution from four particular ones")
    p_sup.add_argument("--config", required=True)
    p_sup.set_defaults(func=cmd_superpose)

    p_rank = sub.add_parser("rank",
                            help="exact rank of the prolonged fields at a point")
    p_rank.add_argument("--point", required=True,
                        help="x1,x2,x3,x4,v1,v2,v3,v4 as rationals")
    p_rank.set_defaults(func=cmd_rank)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUp as exc:
        print(f"error: blow-up detected near t* = {exc.t_star:.12g}",
              file=sys.stderr)
        return EXIT_BLOWUP
    except (ConstraintViolation, NonFinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except Degenerate as exc:
        at = f" at t = {exc.t:.12g}" if exc.t is not None else ""
        print(f"error: degenerate configuration ({exc.which} = "
              f"{float(exc.value):.3e}){at}", file=sys.stderr)
        return EXIT_DEGENERATE
    except StepBudgetExceeded as exc:
        print(f"error: step budget of {exc.budget} attempted steps exceeded "
              f"at t = {exc.t:.12g} (stiff?)", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
