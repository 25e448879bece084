"""Speed probe: converts measured seconds to seconds at a reference speed.

The reference machine is a shared host whose speed swings by 20-40%
within seconds, and each of its CPUs swings on its own (timings taken at
the same moment in two processes do not correlate).  So the probe samples
the speed of the very thread that runs the program: a SIGALRM handler runs
a small fixed kernel every PERIOD_S seconds and records how long it took.
A span's reference time is its measured time with the probe's own time
taken out, scaled by the mean over the span's samples of
`REFERENCE_S[kind] / kernel time`.  The kernels live here, not in the
program, so they are the same on every commit that is compared.

Two kernels, because the program's work slows by different amounts from
one contention phase to the next: "interp" does dict and small-tuple work
in the interpreter, like polynomial arithmetic and enumeration;
"bigint" does int-to-str conversion and a product of big ints in C, like
printing a triangle of big integers.  Each workload names the kernel
whose work resembles its own (workloads.PROBE).
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.025
# Samples taken directly before the first span and after the last, so that
# every span has close samples on both sides.
EDGE_SAMPLES = 20
# A span with fewer samples than this uses that many nearest to its middle.
MIN_SAMPLES = 8
# Room for the samples of a 200 s child, allocated before the program runs:
# lists grown in the handler would put blocks between the program's own on
# the heap and move its peak memory from run to run.
MAX_SAMPLES = 8000

_BIG = 3 ** 6000 + 12345


def _interp() -> int:
    d: dict = {}
    for i in range(1200):
        key = (i % 17, i & 7)
        d[key] = d.get(key, 0) + i * 1234567890123
    return len(d)


def _bigint() -> int:
    return len(str(_BIG)) + (_BIG * (_BIG >> 3000) & 1)


KERNELS = {"interp": _interp, "bigint": _bigint}
# Time of one kernel call at the reference speed: about its median on the
# reference machine, so that reference seconds read close to its seconds.
REFERENCE_S = {"interp": 0.0006, "bigint": 0.00026}


class Probe:
    """Samples kernel speed in this thread; use as a context manager.

    `wall_s` and `cpu_s` accumulate the time spent in samples, so a span
    that reads them at both ends can take the probe's own time out.
    """

    def __init__(self, kind: str):
        self.kernel = KERNELS[kind]
        self.reference_s = REFERENCE_S[kind]
        self.times = [0.0] * MAX_SAMPLES
        self.factors = [0.0] * MAX_SAMPLES
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu0 = time.process_time()
            start = time.perf_counter()
            self.kernel()
            took = time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu0
        finally:
            if collecting:
                gc.enable()
        self.wall_s += took
        if self.count < MAX_SAMPLES:
            self.times[self.count] = start
            self.factors[self.count] = self.reference_s / took
            self.count += 1

    def __enter__(self) -> "Probe":
        for _ in range(EDGE_SAMPLES):
            self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]."""
        times, factors = self.times[:self.count], self.factors[:self.count]
        inside = [f for t, f in zip(times, factors) if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(range(len(times)),
                             key=lambda i: abs(times[i] - middle))[:MIN_SAMPLES]
            inside = [factors[i] for i in nearest]
        return sum(inside) / len(inside)

