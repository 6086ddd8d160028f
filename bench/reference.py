"""Reference kernels: fixed computations, owned by the benchmark, that are
timed around and during every job.

The shared host of the baseline swings in speed by up to 1.8x for seconds
to tens of seconds at a time, as other tenants come and go, and that swamps
any change in kmmix itself.  So each job's time is divided by the mean time
of a reference kernel sampled right before the job, right after it, and
every TICK_S seconds while it runs (from a SIGALRM handler, on the same
thread).  The quotient is the job's time in reference units ("ref"); it
cancels the swing as far as the job slows down the way the kernel does.
Interpreter-bound jobs (Python loops over small numpy arrays) slow down
like `interpreter`; jobs that stream 1e5-element arrays slow down less,
like `array`.  Each kernel takes about a millisecond.
"""

import signal
import statistics
import time

import numpy as np

TICK_S = 0.05

_STATES = np.arange(100_000, dtype=np.int64) % 7
_UNIFORMS = np.linspace(0.0, 1.0, 100_000)


def interpreter() -> int:
    total = 0
    for i in range(20_000):
        total += i
    return total


def array() -> int:
    """One reflecting-walk step of 1e5 states, as in coupling._step."""
    moved = _STATES + (_UNIFORMS < 0.3).astype(np.int64) - (_UNIFORMS >= 0.7).astype(np.int64)
    return int(np.where(_STATES == 0, 1, moved).sum())


KERNELS = {"interpreter": interpreter, "array": array}


def timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Reference:
    """Samples one kernel around and during timed calls."""

    def __init__(self, kernel):
        self.kernel = kernel

    def between(self) -> float:
        """One sample between two jobs; the median of five rejects a lone
        interrupted timing."""
        return statistics.median(timed(self.kernel) for _ in range(5))

    def during(self, fn, *args):
        """fn(*args) with the kernel sampled every TICK_S seconds while it
        runs; returns (fn's result, the samples)."""
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(timed(self.kernel)))
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            return fn(*args), ticks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
