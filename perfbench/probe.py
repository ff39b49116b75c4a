"""Host-speed probe: pass times corrected for the speed drift of a shared host.

On a shared host the same pass can run at very different speeds within a
minute: neighbours on the same physical core slow a process by up to 1.7x,
in phases that last from about one to tens of seconds.  Raw wall times of
the same code then spread by 20-30% between runs, far wider than any
change worth measuring.

While a probe is on, a SIGALRM handler in the benchmark's one thread (no
thread, no process) times a fixed pure-Python kernel every INTERVAL
seconds.  The kernel multiplies two small sparse polynomials with Fraction
coefficients, the kind of work singpair does, so it slows in the same
phases and by about the same factor.  Between two probes the program runs
at the speed the two probes measured; `scaled(a, b)` sums the program's
time in [a, b] with each stretch multiplied by REFERENCE / kernel time,
and leaves the probes' own time out.  The result is the time [a, b] would
take on a host where the kernel takes REFERENCE seconds.  It moves with the
program's own speed, as a raw time does, but not with the host's drift.
"""

from __future__ import annotations

import random
import signal
import time
from bisect import bisect_right
from fractions import Fraction

INTERVAL = 0.1
# The scale of scaled times: about the median time of one kernel call
# between program work on a 2-vCPU Intel Xeon VM at 2.0 GHz, where a
# scaled time then reads about the same as a raw one.
REFERENCE = 3.0e-3


def _polynomial(rng: random.Random, terms: int) -> dict:
    return {tuple(rng.randrange(5) for _ in range(6)): Fraction(rng.randrange(1, 60), rng.randrange(1, 9))
            for _ in range(terms)}


_RNG = random.Random(20140408)
_P = _polynomial(_RNG, 20)
_Q = _polynomial(_RNG, 20)


def kernel() -> dict:
    """The fixed work a probe times: one product of two sparse polynomials."""
    out: dict = {}
    for a, ca in _P.items():
        for b, cb in _Q.items():
            m = tuple(x + y for x, y in zip(a, b))
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


class Probe:
    """Times `kernel()` every INTERVAL seconds while on (a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at the start of each probe
        self.ends: list[float] = []
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def scaled(self, a: float, b: float) -> float:
        """Program time in [a, b], each stretch between two probes scaled by
        REFERENCE over the mean kernel time of those two probes."""
        if not self.starts or a < self.starts[0] or b > self.ends[-1]:
            raise ValueError("interval not covered by the probe")
        total = 0.0
        i = max(1, bisect_right(self.starts, a))
        while i < len(self.starts) and self.ends[i - 1] < b:
            lo, hi = max(a, self.ends[i - 1]), min(b, self.starts[i])
            if hi > lo:
                took = (self.ends[i - 1] - self.starts[i - 1] + self.ends[i] - self.starts[i]) / 2
                total += (hi - lo) * REFERENCE / took
            i += 1
        return total
