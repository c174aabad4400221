"""Machine-speed normalization for timings.

On a shared host the CPU this benchmark runs on changes speed for seconds
at a time, by 40% and at worst by 2x.  Timings are therefore reported in
reference seconds: raw seconds scaled by REF_S over the duration of a
fixed probe loop, sampled every INTERVAL_S while the timed work runs.  A
change to krpoly moves reference seconds as it moves raw seconds; a
change in host speed moves them much less.  Measured on 2 shared vCPUs
over ten runs per workload, the raw wall time's quartile spread of 14-38%
shrank to 2-9% in reference seconds; under the heaviest contention the
correction falls short by up to 10%, most for the cli workload.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_S = 0.001
INTERVAL_S = 0.05
WINDOW = 3


_KEYS = tuple((i, i * 7 % 13) for i in range(500))
_TABLE = dict.fromkeys(_KEYS, 0)
CHAIN_LEN = 1 << 16
_CHAIN = []


def compute_loop():
    """Tuple hashing and dict lookups on a small fixed table."""
    table, total = _TABLE, 0
    for _ in range(24):
        for key in _KEYS:
            total ^= table[key]
    return total


def probe_loop():
    """Fixed pure-Python work over data built once, so it allocates nothing
    and does not depend on the program's heap: ``compute_loop``, then a walk
    along a 2 MB cycle of scattered list entries, which slows with memory
    contention as the workloads do."""
    chain, i = _CHAIN, 0
    for _ in range(4000):
        i = chain[i]
    return compute_loop() ^ i


class SpeedProbe:
    """Durations of ``probe_loop`` over time.

    ``start_timer`` samples from a SIGALRM handler every INTERVAL_S, so
    long items are covered too; ``spent`` adds up the time the samples
    took, which the caller subtracts from the interval it times.
    """

    def __init__(self, loop=probe_loop):
        start = time.perf_counter()
        self.loop = loop
        if not _CHAIN:
            # i -> 40501 i + 1 (mod 2^16) visits every index in one cycle
            _CHAIN.extend((40501 * i + 1) % CHAIN_LEN for i in range(CHAIN_LEN))
        self.marks = []
        self.durations = []
        self.spent = time.perf_counter() - start

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self.loop()
        end = time.perf_counter()
        self.marks.append((start + end) / 2)
        self.durations.append(end - start)
        self.spent += end - start

    def maybe_sample(self):
        if not self.marks or time.perf_counter() - self.marks[-1] >= INTERVAL_S:
            self.sample()

    def absorb(self, marks, durations, spent):
        """Take in samples a subprocess took while it ran on this CPU."""
        self.marks.extend(marks)
        self.durations.extend(durations)
        self.spent += spent

    def start_timer(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end=None):
        """Factor from raw to reference seconds over [start, end]: the median
        sample inside it, widened by WINDOW samples on each side."""
        lo = bisect.bisect_left(self.marks, start)
        hi = bisect.bisect_right(self.marks, start if end is None else end)
        window = self.durations[max(0, lo - WINDOW) : hi + WINDOW]
        return REF_S / statistics.median(window)
