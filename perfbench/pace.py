"""Host-speed reference for timed runs.

On a shared virtual machine the same code runs up to about 1.8 times
faster or slower from one half-minute to the next, in both wall and CPU
time, as other guests come and go.  Those phases last longer than a run's
median can smooth over, so times are converted to reference seconds: a
fixed pure-Python kernel (float map steps, an LCG draw and string
formatting, like chaosctl's own inner loops) runs for about REF_S seconds
every INTERVAL_S seconds of wall time, on the same CPU as the job list.
Each stretch of the job list between two kernel runs is scaled by REF_S
over the median kernel time of the nearby samples, and the kernel's own
time is left out.  Time in which the hypervisor ran other guests on the
CPU (steal) is taken out too, in proportion over each pass: it is not the
program's time, and it varies with the neighbours as much as the speed
does.  A job that took 10 s while the kernel took exactly
REF_S took 10 reference seconds; while the host ran twice as slow, its 20
host seconds are again 10 reference seconds.  A change to chaosctl moves
only the job list's time, not the kernel's.

The kernel and REF_S are part of the unit: changing either changes every
time the benchmark reports.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import time

#: About the kernel's median time inside a job list on a 2-vCPU Intel Xeon
#: virtual machine in its usual phase; fixed, it defines the reference second.
REF_S = 1.0e-3
#: Wall time between the starts of two kernel runs.
INTERVAL_S = 0.025
#: Samples on each side that a stretch's speed is taken from (about 0.5 s).
HALF_WINDOW = 20


def kernel(n: int = 500) -> int:
    """The fixed reference work.  Do not change it."""
    x, y, acc, rows = 0.1, 0.1, 0, []
    seed = 12345
    for i in range(n):
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        u = seed / 2147483648.0
        x, y = 1.0 - 1.4 * x * x + y + 1e-3 * u, 0.3 * x
        rows.append("%d,%.6g,%.6g" % (i, x, y))
        acc += abs(x) > 1.5
    return len(",".join(rows)) + acc


def steal_s(cpu: int) -> float:
    """Seconds the hypervisor has run other guests while `cpu` wanted to
    run (the steal column of /proc/stat), to 1/CLK_TCK."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no cpu{cpu} line in /proc/stat")


def kernel_seconds(reps: int) -> list:
    """Times of `reps` back-to-back kernel runs."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


class Pacer:
    """Runs the kernel from a SIGALRM handler every INTERVAL_S seconds of
    wall time, in the main thread, between `start` and `stop`; then
    converts spans of perf_counter time to reference seconds."""

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        self.local: list = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        d = [b - a for a, b in zip(self.starts, self.ends)]
        if not d:
            raise RuntimeError("the pacer took no samples")
        h = HALF_WINDOW
        self.local = [statistics.median(d[max(0, i - h):i + h + 1]) for i in range(len(d))]

    def median_kernel_s(self) -> float:
        return statistics.median(b - a for a, b in zip(self.starts, self.ends))

    def convert(self, a: float, b: float) -> tuple:
        """(reference seconds, kernel seconds) inside the span [a, b].

        Each stretch between kernel runs is scaled by the local speed of
        the next sample (the last one after the final sample)."""
        n = len(self.starts)
        ref = kernel_s = 0.0
        cur = a
        i = bisect.bisect_right(self.starts, a)
        if i > 0 and self.ends[i - 1] > cur:  # a fell inside a kernel run
            kernel_s += min(b, self.ends[i - 1]) - cur
            cur = self.ends[i - 1]
        while cur < b:
            nxt = self.starts[i] if i < n else math.inf
            end = min(b, nxt)
            ref += (end - cur) * REF_S / self.local[min(i, n - 1)]
            if nxt >= b:
                break
            kernel_s += min(b, self.ends[i]) - nxt
            cur = self.ends[i]
            i += 1
        return ref, kernel_s
