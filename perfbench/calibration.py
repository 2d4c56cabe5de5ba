"""Machine-speed calibration shared by the orchestrator and the workers.

On a shared machine the speed of this process swings by up to 1.6x within
seconds, as other work comes and goes on the same core; raw times would hide
any change smaller than that.  So the benchmark times a fixed pure-Python
kernel before and after each measured interval, and every ``INTERVAL_S``
during it (from a SIGALRM handler), and reports each interval as the time it
would have taken at a fixed reference speed: the speed at which the kernel
takes ``REFERENCE_S``, about its time on an uncontended core of the machine
the baseline was recorded on.  The kernel does what the solvers do most
(compare tuples, sort, look up a dict, sum), so it slows down with them; a
bare arithmetic loop tracked them about half as well.  Its data are built
once and it runs with the garbage collector off, so that a solver using more
memory slows it down as little as possible: README.md gives the check.  Raw times are reported
alongside.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 100e-6
INTERVAL_S = 0.01
PROBE_SAMPLES = 10  # kernels timed before and after an interval too short to sample inside


# The kernel's data, built once.  A kernel that built its own tuples needed
# fresh memory whenever the solver's growing heap had taken the free blocks,
# and so absorbed part of the solver's memory cost.
_KEYS = [(i * 7 % 13, i) for i in range(400)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_SHUFFLED = sorted(_KEYS, key=lambda key: key[1] * 37 % len(_KEYS))
_WORK = list(_SHUFFLED)


def kernel_s() -> float:
    """Seconds the fixed kernel takes right now.  The garbage collector is
    off meanwhile, so the kernel cannot start a collection of the solver's
    heap and be charged for it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work = _WORK
        work[:] = _SHUFFLED
        work.sort()
        total = 0
        for key in work:
            total += _TABLE[key]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples the kernel time while entered.  ``scale()`` converts the raw
    time of the interval since ``start()`` to reference-speed seconds."""

    def __init__(self):
        self._speeds = []  # REFERENCE_S / kernel time, one per sample

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame):
        self._speeds.append(REFERENCE_S / kernel_s())

    def _sample_now(self):
        # The alarm is held back meanwhile: a handler run inside this
        # kernel would be timed as part of it.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        self._speeds.clear()
        self._sample_now()

    def scale(self) -> float:
        """Work done per raw second since ``start``, in reference seconds:
        the mean of the speed samples, which fall evenly in wall time."""
        self._sample_now()
        return sum(self._speeds) / len(self._speeds)


def _speed() -> float:
    return sum(REFERENCE_S / kernel_s() for _ in range(PROBE_SAMPLES)) / PROBE_SAMPLES


def scale_around(fn):
    """(fn's raw seconds, reference-speed factor from kernels before and
    after, fn's result), for intervals too short to sample inside."""
    before = _speed()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    return raw, (before + _speed()) / 2, out
