"""Host-speed probe: a fixed kernel timed while the workload runs.

The benchmark's host is a few vCPUs of a shared machine.  Other tenants slow
it by up to half for seconds to minutes at a time, and the slowdown shows in
CPU time as much as in wall time, so neither clock alone can tell a slower
program from a busier machine.  The probe times a fixed kernel that does not
touch the package under test, interleaved with the ops, and an op's latency
is scaled by REFERENCE_S over the kernel's median time around it:

    reported = measured * REFERENCE_S / kernel_median

A change to the program moves `measured` and leaves the kernel alone, so it
shows in full; a slower spell of the host moves both and largely cancels.
Reported times are therefore seconds on a host where the kernel takes
REFERENCE_S.  The kernel mixes the two kinds of work the package does, numpy
calls on a handful of floats inside Python loops and whole-grid numpy
expressions, because the two slow down by different amounts.

`Probe.start` arms an interval timer whose handler runs the kernel in the
main thread, between the op's bytecodes: no extra thread or process runs.
The handler's own time is kept in `Probe.stolen`, so a caller can take it
out of the op it interrupted.
"""

import bisect
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 5e-4  # nominal kernel time; reported times are scaled to it
INTERVAL_S = 0.02  # one kernel sample every 20 ms of wall time
WINDOW_S = 0.25  # samples this close to a stretch of an op scale it
CHUNK_S = 0.5  # a longer op is scaled stretch by stretch
MIN_SAMPLES = 15

_SMALL = np.linspace(0.05, 0.95, 16)
_GRID = np.linspace(0.001, 0.999, 999)


def kernel():
    """Fixed work, about half small-array loops and half grid expressions."""
    acc = 0.0
    for k in range(60):
        y = _SMALL * (1.0 - _SMALL) + 1e-6 * k
        acc += float(np.log(y).sum())
        acc += math.sqrt(k + 1.0) * math.log1p(k)
    for k in range(30):
        y = _GRID * (1.0 - _GRID) + 1e-6 * k
        acc += float((y * np.log(y)).sum())
    return acc


class Probe:
    """Timed kernel samples taken on a wall-clock interval timer."""

    def __init__(self):
        self.times = []  # sample start, on the perf_counter clock
        self.samples = []  # kernel seconds
        self.stolen = 0.0  # seconds spent in the handler so far
        self.ops = []  # (start, end, seconds net of the handler) per timed op

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled_ops(self):
        """Each timed op's seconds, scaled to the reference host speed."""
        return [seconds * self.speed_scale(t0, t1) for t0, t1, seconds in self.ops]

    def speed_scale(self, began, ended):
        """REFERENCE_S over the kernel time, averaged over [began, ended].

        The interval is cut into stretches of at most CHUNK_S; each stretch
        takes the median of the samples near it, weighted by its length.
        """
        chunks = max(1, math.ceil((ended - began) / CHUNK_S))
        step = (ended - began) / chunks
        return statistics.fmean(
            REFERENCE_S / self._local_median(began + i * step, began + (i + 1) * step) for i in range(chunks)
        )

    def _local_median(self, began, ended):
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.times, began - window)
            hi = bisect.bisect_right(self.times, ended + window)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.times):
                return statistics.median(self.samples[lo:hi])
            window *= 2
