"""The machine's speed, sampled inside the measured process.

On a virtual machine that shares its cores with other tenants (measured: a
2-vCPU Xeon VM) the speed drifts by 15-40 % within seconds and over minutes;
the drift shows in CPU time as much as in wall time, and a reference timed
before and after a piece of work does not predict the speed during it (a
22 s plan bracketed by 1 s references varied as much as the raw time did).
So every timed benchmark child runs a `Speedometer`: a SIGALRM handler that,
every INTERVAL_S of wall time, runs one unit of a fixed reference
computation and records how long it took.
The samples are taken while zladder works, on the same core, between two of
its bytecodes.  A piece of work from t0 to t1 is then reported as

    work_s = (t1 - t0) - (reference time spent inside [t0, t1])
    ref_s  = work_s * REF_NOMINAL_S / (mean reference unit time in [t0, t1])

`ref_s` is the time the work would take at the reference speed.  A change to
zladder moves `work_s` and leaves the reference alone, so it shows in full;
a slower or faster moment of the machine moves both and cancels out.

The reference mixes the three kinds of work zladder does: a vectorised
cosine sum shaped like the Riemann-Siegel main sum, small numpy calls (as in
scalar Z, eval and invert calls) and plain interpreter arithmetic.  It uses a
few hundred kB, so it does not move a process's peak RSS, and it is the
benchmark's own code, which a change to zladder cannot alter.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02       # wall time between two samples
REF_NOMINAL_S = 0.0028  # seconds per reference unit, undisturbed 2-vCPU Xeon VM

_LOGN = np.log(np.arange(1, 127, dtype=float))
_T = np.linspace(99000.0, 99010.0, 512)
_X = _T[:7] * 1e-3


def reference_unit() -> float:
    acc = float(np.cos(np.outer(_LOGN, _T)).sum())
    for _ in range(300):
        acc += float(np.sin(_X).sum())
    s = 0
    for i in range(10000):
        s += i * i % 7
    return acc + s


def to_ref(work_s: float, unit_times: list[float]) -> float:
    """Reference seconds of `work_s` seconds of work, done while the
    reference unit took `unit_times`; `work_s` itself when nothing was
    sampled."""
    if not unit_times:
        return work_s
    return work_s * REF_NOMINAL_S / statistics.fmean(unit_times)


class Speedometer:
    """Samples the reference unit every INTERVAL_S of wall time while started.

    An unstarted one has no samples: its `work()` is the wall time and its
    `ref()` the work time, which is what a traced run wants.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_unit()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def _inside(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        return self.times[lo:bisect.bisect_left(self.starts, t1)]

    def work(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1) less the reference time run inside it."""
        return (t1 - t0) - sum(self._inside(t0, t1))

    def ref(self, work_s: float, t0: float, t1: float) -> float:
        """Reference seconds of `work_s` seconds of work done in [t0, t1);
        uses every sample of the process when none fell inside."""
        return to_ref(work_s, self._inside(t0, t1) or self.times)
