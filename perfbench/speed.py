"""Machine-speed correction for a shared, noisy host.

On a 2-core virtual machine shared with other tenants, a fixed piece of
corrlab work runs up to twice as slow for stretches of 5 to 40 seconds, and
CPU time inflates with wall time (the slowdown is contention for the core,
not time spent descheduled).  Such a stretch can cover most of one run.

The benchmark therefore times a fixed reference kernel -- small complex
matrix products, QR factorizations and a Python loop, the mix corrlab's own
inner loops are made of, and nothing from corrlab -- before and after every
step and, while a step runs, every half second from a SIGALRM handler.  An
interval of work is reported as its length outside the kernel runs, scaled
by REF_S over the median kernel time near it: seconds of a machine on which
the kernel takes REF_S.  On a quiet machine the factor is close to 1.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# the kernel's time on an idle 2-core Intel Xeon virtual machine (numpy 2.4,
# one BLAS thread); it only sets the scale of the reported seconds
REF_S = 0.008
INTERVAL_S = 0.5
_A = (np.random.default_rng(0).standard_normal((12, 12))
      + 1j * np.random.default_rng(1).standard_normal((12, 12)))


def kernel_seconds() -> float:
    t = time.perf_counter()
    for _ in range(150):
        q, r = np.linalg.qr(_A @ _A)
        np.einsum("ij,jk->ik", q, r)
        sum(i * i for i in range(60))
    return time.perf_counter() - t


class Meter:
    """Kernel runs as (start, end) marks; ``with meter:`` adds periodic ones.

    ``on_probe(seconds)`` is told the length of every kernel run, so that a
    tracer can take it out of the span it interrupted.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.starts: list = []
        self.ends: list = []
        self._busy = False

    def probe(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        kernel_seconds()
        self.starts.append(t)
        self.ends.append(time.perf_counter())
        if self.on_probe is not None:
            self.on_probe(self.ends[-1] - t)
        self._busy = False

    def __enter__(self):
        self.probe()
        self._old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probe()

    def _factor(self, t: float) -> float:
        """REF_S over the median kernel time of the seven probes nearest t."""
        i = bisect.bisect_left(self.starts, t)
        near = range(max(0, i - 4), min(len(self.starts), i + 3))
        return REF_S / statistics.median(self.ends[j] - self.starts[j] for j in near)

    def scaled(self, a: float, b: float) -> float:
        """Scaled seconds of [a, b], kernel runs inside it left out."""
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        total, t = 0.0, a
        for j in range(lo, hi):
            s, e = max(self.starts[j], a), min(self.ends[j], b)
            if s > t:
                total += (s - t) * self._factor((s + t) / 2)
            t = max(t, e)
        if b > t:
            total += (b - t) * self._factor((b + t) / 2)
        return total
