"""Host-speed calibration for the gated timings.

The benchmark runs on a few cores of a shared host whose speed moves between
levels that last from seconds to minutes.  A run that falls in a slow period
reads slow in every timing, and no statistic inside one run removes that.

So two fixed pieces of pure-Python work, the *calibrators*, are timed every
``GAP_S`` seconds of the run, from a ``SIGALRM`` handler, in the one thread
the program runs in; long operations are sampled from the inside too.

* ``compute`` mixes the two kinds of work the program's operations do: a
  product of two sparse ``Fraction`` polynomials held in dicts, with a few
  hundred distinct terms (like ``exactpoly``), and a float Runge-Kutta loop
  with ``math`` calls (like ``odeint`` and ``coeffexpr``).  It rescales the
  operation timings.
* ``import`` loads a few standard-library modules from their files under
  private names, as an import of the program does.  With ``compute`` it
  rescales ``setup_s``: an import of ``liesuper`` followed by parsing
  coefficients, which follows the host's loader speed as well as its
  arithmetic speed.

Neither calls the program, so a change to the program cannot move them.

``clock`` is a clock that stops while the calibrators run, so no timing of
the program includes them.  A timing taken over ``[start, end]`` of that
clock is rescaled by ``r / c``, where ``c`` is the median time of the chosen
calibrators (summed per tick) within ``WINDOW_S`` of the interval and ``r``
is their summed ``REFERENCE_S``.  The result is the time the work would take
at the speed where the calibrators take their reference times: still
seconds, and still proportional to the program's cost.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import fractions
import gc
import importlib.util
import math
import random
import signal
import statistics
import string
import time
from fractions import Fraction

# each calibrator's typical time on the sizing machine (2 cores, Python 3.11)
REFERENCE_S = {"compute": 2.5e-3, "import": 2.8e-3}
GAP_S = 0.1  # time between calibrator runs
WINDOW_S = 1.0  # calibrations this close to an interval rescale it


def _polynomial(rng: random.Random, terms: int) -> dict:
    """Sparse 3-variable polynomial with ``Fraction`` coefficients."""
    poly: dict = {}
    while len(poly) < terms:
        monomial = (rng.randrange(12), rng.randrange(12), rng.randrange(12))
        poly[monomial] = Fraction(rng.randrange(1, 40) * rng.choice((-1, 1)),
                                  rng.randrange(1, 30))
    return poly


_rng = random.Random(0)  # fixed: the calibrator's work never changes
_P, _Q = _polynomial(_rng, 20), _polynomial(_rng, 20)
_MODULE_FILES = [m.__file__ for m in (fractions, dataclasses, argparse, string)]


def _exact_work() -> int:
    out: dict = {}
    for ka, va in _P.items():
        for kb, vb in _Q.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = out.get(k, 0) + va * vb
    return len([v for v in out.values() if v])


def _float_work() -> int:
    t, x, v, h = 0.0, 0.3, -0.1, 1e-3
    states = []
    for _ in range(600):
        k1 = -3.0 * x * v - x**3 + math.sin(t)
        xm, vm = x + 0.5 * h * v, v + 0.5 * h * k1
        k2 = -3.0 * xm * vm - xm**3 + math.sin(t + 0.5 * h)
        x, v, t = x + h * vm, v + h * k2, t + h
        states.append((t, x, v))
    return len(states)


def _compute_work() -> None:
    _exact_work()
    _float_work()


def _import_work() -> None:
    """Load each module from its file; nothing enters ``sys.modules``."""
    for i, path in enumerate(_MODULE_FILES):
        spec = importlib.util.spec_from_file_location(f"_perfbench_cal{i}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


CALIBRATORS = {"compute": _compute_work, "import": _import_work}


class Calibration:
    """A timeline of calibrator runs, and the rescaling it gives."""

    def __init__(self):
        self.at: list[float] = []  # ``clock()`` when each tick started
        self.seconds: dict[str, list[float]] = {k: [] for k in CALIBRATORS}
        self.paused = 0.0  # wall time spent in the calibrators so far

    def clock(self) -> float:
        """Wall time, less the time spent in the calibrators."""
        return time.perf_counter() - self.paused

    def run(self) -> None:
        """Time each calibrator once, with the collector off.

        The garbage of the loaded modules is collected before the clock
        restarts, so the program's next collection does not pay for it.
        """
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        for kind, work in CALIBRATORS.items():
            t0 = time.perf_counter()
            work()
            self.seconds[kind].append(time.perf_counter() - t0)
        gc.collect(0)
        if enabled:
            gc.enable()
        self.at.append(start - self.paused)
        self.paused += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.run()
        signal.setitimer(signal.ITIMER_REAL, GAP_S)  # re-armed: never nested

    @contextlib.contextmanager
    def periodic(self):
        """Run the calibrators every ``GAP_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAP_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def local(self, kinds, start: float, end: float,
              window: float = WINDOW_S) -> float:
        """Median time of ``kinds`` around ``[start, end]`` of ``clock``.

        The calibrators tick every ``GAP_S`` while anything is timed, so the
        window is never empty.
        """
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        return statistics.median(sum(self.seconds[k][i] for k in kinds)
                                 for i in range(lo, hi))

    def rescale(self, seconds: float, start: float, end: float,
                kinds=("compute",), window: float = WINDOW_S) -> float:
        """``seconds`` taken over ``[start, end]``, at the reference speed."""
        reference = sum(REFERENCE_S[k] for k in kinds)
        return seconds * reference / self.local(kinds, start, end, window)


CALIBRATION = Calibration()  # one per process: its clock is the timings' clock
clock = CALIBRATION.clock
