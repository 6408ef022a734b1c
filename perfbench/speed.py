"""Machine-speed normalisation of measured times.

On a shared virtual machine the vCPU itself runs faster or slower from
one second to the next (process CPU time tracks wall time, so the
process is not waiting; it is the CPU that is slow).  Raw task times
then move by a third between runs of the same code.  To take that out,
a Sampler runs a fixed pure-Python kernel of exact Fraction arithmetic
(the kind of work qgl2 does, but none of qgl2's code) from a profiling
timer every INTERVAL_S of process CPU time while the tasks run, and
records how long each kernel call took.  A measured time t is reported
at the reference speed:

    t * REF_KERNEL_S * mean(1 / kernel time of each sample)

i.e. the time the same work would take on a machine where the kernel
takes REF_KERNEL_S.  The time spent in the sampler's handler is
subtracted from t first.  A change to qgl2 moves t and leaves the kernel
alone, so it shows in full; a slower or faster vCPU moves both.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05     # process CPU time between two samples
# the reference speed: a round figure near the kernel's median time on
# the machine the benchmark was tuned on (shared 2-vCPU x86-64 VM,
# Python 3.11), where it moved between about 0.6 and 1.1 ms
REF_KERNEL_S = 0.0010

_POLY = tuple(Fraction(k + 1, 2 * k + 3) for k in range(9))


def kernel() -> int:
    """Multiply a polynomial with Fraction coefficients by itself and
    reduce the product modulo the polynomial again."""
    a = _POLY
    n = len(a)
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            prod[i + j] += x * y
    lead = a[-1]
    for k in range(len(prod) - 1, n - 2, -1):
        c = prod[k] / lead
        for t in range(n):
            prod[k - n + 1 + t] -= c * a[t]
    return len(prod)


class Sampler:
    """Samples the kernel's time from SIGPROF while it is started."""

    def __init__(self):
        self.samples = []     # seconds per kernel call
        self.spent = 0.0      # seconds spent inside the handler
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += time.perf_counter() - start

    def start(self):
        kernel()              # warm up before the first sample
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def scale(self, since: int = 0) -> float:
        """Factor from measured to reference time, from the samples taken
        since sample number `since` (all of them if there are none)."""
        window = self.samples[since:] or self.samples
        if not window:
            raise RuntimeError("no speed sample taken")
        return REF_KERNEL_S * statistics.fmean(1 / s for s in window)
