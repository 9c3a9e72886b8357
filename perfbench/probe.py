"""Machine-speed probe.

The speed of the shared machine drifts by 10-30 % from one run to the next,
on a scale of seconds to minutes.  While a timed region runs, a fixed
kernel is timed every PROBE_PERIOD_S from a SIGALRM timer; `scale()` is the
kernel's nominal time over its median measured time, and a time multiplied
by it is the time the region would have taken at the kernel's nominal
speed.  Over ten runs this halves the quartile spread of every timing.
`scale_during()` does the same with the samples taken around one interval,
for timings too short to average out the machine's second-to-second bursts.
"""

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_PERIOD_S = 0.2
PROBE_NOMINAL_S = 0.003
# scale_during() uses the samples taken within this margin of the interval,
# so even a short interval sees about five of them.
LOCAL_MARGIN_S = 0.5


def _probe_kernel():
    """Small-int arithmetic only: it allocates no object the cyclic garbage
    collector tracks, so the program's heap does not change its time."""
    total = 0
    for i in range(35_000):
        total += i * i
    return total


class SpeedProbe:
    """Times the probe kernel from a SIGALRM timer while a region runs."""

    def __init__(self):
        self.samples = []
        # perf_counter() at the end of each sample, ascending
        self.times = []

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        _probe_kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self.times.append(end)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self) -> float:
        """Nominal over measured kernel time: above 1 while the machine runs
        faster than nominal, so scaled times are times at nominal speed."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)

    def scale_during(self, start: float, end: float) -> float:
        """scale() over the samples taken within LOCAL_MARGIN_S of the
        perf_counter() interval [start, end]; over all samples if a long
        call without a signal check left none there."""
        lo = bisect_left(self.times, start - LOCAL_MARGIN_S)
        hi = bisect_right(self.times, end + LOCAL_MARGIN_S)
        samples = self.samples[lo:hi] or self.samples
        return PROBE_NOMINAL_S / statistics.median(samples)
