"""Outside-in span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the ``liesuper`` layers
from the benchmark's side; nothing under ``src/`` is edited.  A function is
replaced in every ``liesuper`` module that binds it, because callers such as
``cli`` import ``integrate``, ``reconstruct`` ... by name at import time and
look them up in their own namespace.

Each call records a span (id, parent id, name, start, end) in columnar
arrays held in memory and written out when the run ends.  Calls, total time
and self time (duration minus the time covered by child spans) are
aggregated as spans close; exact counters (term pairs, steps, bytes) are
kept at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.by_parent: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name id, child time]
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []
        self._counted_errors: list[BaseException] = []
        self.t0 = time.perf_counter()

    # -- span bookkeeping ----------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result, seconds)`` counts."""
        nid = self._nid(name)
        stack = self._stack
        clock = time.perf_counter
        degenerate = self.lib.Degenerate

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            if stack:
                parent = stack[-1]
                pid = parent[0]
                self.by_parent[(name, self.names[parent[1]])] += 1
            else:
                pid = 0
            frame = [sid, nid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except degenerate as exc:
                if not any(exc is seen for seen in self._counted_errors):
                    self._counted_errors.append(exc)
                    self.counters["superpose.degenerate"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self.span_id.append(sid)
                self.parent_id.append(pid)
                self.name_id.append(nid)
                self.start.append(t0)
                self.end.append(t1)
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[2]
            if after is not None:
                after(args, result, dur)
            return result

        return traced

    # -- installing wrappers ---------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "liesuper" or n.startswith("liesuper."))]

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` wherever a module binds it."""
        hits = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no liesuper module binds {original!r}")

    def wrap_function(self, name: str, original, after=None):
        self.replace_everywhere(original, self.span(name, original, after))

    def wrap_method(self, name: str, cls, attr: str, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.span(name, raw.__func__, after))
        else:
            wrapped = self.span(name, raw, after)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def install(self) -> None:
        """Wrap the public boundary of every layer (see NOTES.md)."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        exactpoly, odeint = mods["exactpoly"], mods["odeint"]
        superpose, riccati = mods["superpose"], mods["riccati"]
        algebra, coeffexpr, cli = mods["algebra"], mods["coeffexpr"], mods["cli"]
        c = self.counters

        # exactpoly: only Polynomial x Polynomial products are spans; scaling
        # by a scalar goes straight through
        Polynomial = exactpoly.Polynomial
        plain_mul = Polynomial.__dict__["__mul__"]

        def count_pairs(args, result, dur):
            c["exactpoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        traced_mul = self.span("exactpoly.mul", plain_mul, count_pairs)

        def mul(a, b):
            if isinstance(b, Polynomial):
                return traced_mul(a, b)
            return plain_mul(a, b)

        Polynomial.__mul__ = mul
        self._restore.append((Polynomial, "__mul__", plain_mul))
        self.wrap_method("exactpoly.apply", exactpoly.VectorField, "apply")

        def terms_max(args, result, dur):
            F = args[1]
            size = max(len(F.num.terms), len(F.den.terms),
                       len(result.num.terms), len(result.den.terms))
            key = "exactpoly.derive_along.num_terms_max"
            c[key] = max(c[key], size)

        self.wrap_function("exactpoly.derive_along", exactpoly.derive_along,
                           terms_max)
        self.wrap_function("exactpoly.in_span", exactpoly.in_span)
        self.wrap_function("exactpoly.rank_at", exactpoly.rank_at)

        # algebra and the exact side of superpose
        for fn in (algebra.verify_paper_table, algebra.verify_isomorphism,
                   algebra.verify_scheme):
            self.wrap_function(f"algebra.{fn.__name__}", fn)
        self.wrap_function("superpose.verify_lambda_annihilation",
                           superpose.verify_lambda_annihilation)

        # coeffexpr: parsing, and FirstOrderSystem.rhs of every lifted system
        self.wrap_function("coeffexpr.parse_expr", coeffexpr.parse_expr)
        plain_lift = odeint.lift_sode
        traced_lift = self.span("odeint.lift_sode", plain_lift)

        def lift_sode(*args, **kwargs):
            sys_ = traced_lift(*args, **kwargs)
            return dataclasses.replace(sys_, rhs=self.span("odeint.rhs", sys_.rhs))

        self.replace_everywhere(plain_lift, lift_sode)

        # odeint
        def steps(args, result, dur):
            grid = args[3]
            intervals = len(grid) - 1
            regime = "grid_bound" if result.steps == intervals else "tol_bound"
            c["odeint.integrate.steps"] += result.steps
            c[f"steps.{regime}"] += result.steps
            c[f"seconds.{regime}"] += dur

        self.wrap_function("odeint.integrate", odeint.integrate, steps)
        self.wrap_function("odeint.residual", odeint.residual)
        Trajectory = odeint.Trajectory

        def written(args, result, dur):
            c["odeint.to_csv.bytes"] += os.path.getsize(args[1])

        def read(args, result, dur):
            c["odeint.from_csv.bytes"] += os.path.getsize(args[1])

        self.wrap_method("odeint.to_csv", Trajectory, "to_csv", written)
        self.wrap_method("odeint.from_csv", Trajectory, "from_csv", read)

        # superpose (numeric) and riccati
        def points(args, result, dur):
            c["superpose.reconstruct.points"] += len(result.trajectory)

        self.wrap_function("superpose.reconstruct", superpose.reconstruct, points)
        self.wrap_function("superpose.fit_constants", superpose.fit_constants)
        self.wrap_method("riccati.beta", riccati.RiccatiCoeffs, "beta")
        self.wrap_function("riccati.superpose_riccati", riccati.superpose_riccati)
        self.wrap_function("riccati.build_riccati", riccati.build_riccati)

        # cli
        self.wrap_function("cli.main", cli.main)

    # -- results ---------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json."""
        c = self.counters
        out: dict[str, float] = {}

        def put(name, fields):
            calls, total, self_s = self.stat(name)
            for f in fields:
                out[f"{name}.{f}"] = {"calls": calls, "s": total,
                                      "self_s": self_s}[f]

        put("exactpoly.mul", ("calls", "self_s"))
        out["exactpoly.mul.term_pairs"] = c["exactpoly.mul.term_pairs"]
        put("exactpoly.apply", ("calls", "self_s"))
        put("exactpoly.derive_along", ("calls", "s"))
        out["exactpoly.derive_along.num_terms_max"] = \
            c["exactpoly.derive_along.num_terms_max"]
        put("exactpoly.in_span", ("calls", "s"))
        put("exactpoly.rank_at", ("calls", "s"))
        for name in ("algebra.verify_paper_table", "algebra.verify_isomorphism",
                     "algebra.verify_scheme",
                     "superpose.verify_lambda_annihilation"):
            put(name, ("s",))
        put("coeffexpr.parse_expr", ("calls", "s"))
        put("odeint.rhs", ("calls", "s"))
        put("odeint.integrate", ("calls", "self_s"))
        steps = c["odeint.integrate.steps"]
        out["odeint.integrate.steps"] = steps
        in_integrate = self.by_parent[("odeint.rhs", "odeint.integrate")]
        out["odeint.rhs_per_step"] = in_integrate / steps if steps else 0.0
        for regime in ("grid_bound", "tol_bound"):
            n = c[f"steps.{regime}"]
            out[f"odeint.integrate.us_per_step.{regime}"] = (
                1e6 * c[f"seconds.{regime}"] / n if n else 0.0)
        put("odeint.residual", ("s",))
        put("odeint.to_csv", ("calls", "s"))
        out["odeint.to_csv.bytes"] = c["odeint.to_csv.bytes"]
        put("odeint.from_csv", ("calls", "s"))
        out["odeint.from_csv.bytes"] = c["odeint.from_csv.bytes"]
        put("superpose.reconstruct", ("calls", "self_s"))
        pts = c["superpose.reconstruct.points"]
        total = self.stat("superpose.reconstruct")[1]
        out["superpose.reconstruct.us_per_point"] = 1e6 * total / pts if pts else 0.0
        put("superpose.fit_constants", ("calls",))
        out["superpose.degenerate"] = c["superpose.degenerate"]
        put("riccati.beta", ("calls", "s"))
        put("riccati.superpose_riccati", ("self_s",))
        put("riccati.build_riccati", ("s",))
        put("cli.main", ("calls", "self_s"))
        out["trace.spans"] = len(self.span_id)
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines, times in seconds from tracer start."""
        names, t0 = self.names, self.t0
        with open(path, "w") as fh:
            for sid, pid, nid, s, e in zip(self.span_id, self.parent_id,
                                           self.name_id, self.start, self.end):
                fh.write(f'{{"id":{sid},"parent":{pid},"name":"{names[nid]}",'
                         f'"start":{s - t0:.9f},"end":{e - t0:.9f}}}\n')
