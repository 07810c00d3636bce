"""Host-speed calibration: a fixed pure-Python loop timed next to the work.

On a shared virtual machine the same deterministic work runs at different
speeds from minute to minute (other tenants, not this process, set the
pace), and every time metric of a run rises and falls together.  The
benchmark therefore times, next to the work, a fixed loop that belongs to
the benchmark and never to qhc, and reports each time in *reference
seconds*:

    reference_s = wall_s * REFERENCE_S / mean(loop times around the work)

``REFERENCE_S`` is the loop's median time on the reference host (a 2-vCPU
Intel Xeon at 2.0 GHz, Python 3.11, quiet), so on a quiet reference host
reference seconds equal wall seconds.  A change to qhc moves the work and
not the loop, so it moves reference seconds exactly as it moves wall
seconds; a slow spell of the host moves both and cancels.

The loop does what qhc's inner loops do: sparse polynomial products in
dicts keyed by exponent tuples, with Python-int coefficients and gcds.

``Sampler`` times the loop every ``PERIOD_S`` seconds of a long computation
from an interval-timer signal, so the samples cover the whole interval the
work ran in; the loop's own time is taken out of the work's wall time.

A command-line request is a fresh process of a fraction of a second, most
of it interpreter start and imports, whose speed a loop timed in a warm
process does not follow.  For those the reference is a cold process that
runs the loop ``PROCESS_LOOPS`` times (``python3 perfbench/hostspeed.py``),
timed from spawn to exit like a request; ``REFERENCE_PROCESS_S`` is its
median on the reference host, and ``process_factor`` takes the median of
such processes timed between the requests.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

REFERENCE_S = 0.0060
PERIOD_S = 0.25
_ROUNDS = 24

REFERENCE_PROCESS_S = 0.13
PROCESS_LOOPS = 8


def _poly(seed: int) -> dict:
    return {(i, j): (i * 31 + j * 17 + seed) % 97 + 1 for i in range(5) for j in range(5)}


_P = _poly(3)
_Q = _poly(11)


def loop() -> int:
    """The calibration loop: a fixed amount of interpreter work."""
    acc = 0
    for _ in range(_ROUNDS):
        out: dict = {}
        for (a, b), c in _P.items():
            for (d, e), f in _Q.items():
                k = (a + d, b + e)
                out[k] = out.get(k, 0) + c * f
        for v in out.values():
            acc += math.gcd(v, 360360)
    return acc


def sample() -> float:
    """Wall seconds of one calibration loop."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier from wall seconds to reference seconds."""
    if not samples:
        raise ValueError("no calibration samples")
    return REFERENCE_S / statistics.fmean(samples)


def process_factor(process_s: list[float]) -> float:
    """Multiplier from wall seconds to reference seconds for requests, from
    the wall seconds of cold calibration processes timed between them."""
    if not process_s:
        raise ValueError("no calibration processes")
    return REFERENCE_PROCESS_S / statistics.median(process_s)


class Sampler:
    """Times the calibration loop every ``period`` seconds while work runs.

    Use as a context manager around the work and time the work inside the
    ``with`` block; ``samples`` then holds the loop times, one taken on
    entry, one on exit and one per timer tick, and ``ticks_s`` the time the
    ticks took from inside the block, to be taken out of the work's wall
    time.  The loop runs from a SIGALRM handler, so only in the main thread.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.ticks_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.ticks_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())


if __name__ == "__main__":
    for _ in range(PROCESS_LOOPS):
        loop()
