"""Machine-speed normaliser for the benchmark's wall-clock metrics.

On a shared host the speed of one vCPU swings by up to 2x within
seconds (a busy hyperthread sibling), so a raw wall time says as much
about the neighbours as about the program.  The :class:`SpeedProbe`
measures the machine's speed *while* a program runs: an interval timer
interrupts the main thread every ``PERIOD_S`` seconds and times a short
fixed pure-Python kernel.  A program's normalised time is its raw wall
time divided by the mean slowdown of the kernel samples taken during
it, i.e. seconds on the reference machine.

The kernel allocates no container objects, so a sample never triggers
the cyclic garbage collector over the heap of the program it
interrupts.  This module must not import ``repro``: the normaliser has
to stay independent of the code it measures (a test checks this).
"""

from __future__ import annotations

import signal
import time

#: Seconds between speed samples.
PERIOD_S = 0.02

#: Mean duration of one kernel sample on the reference machine (an
#: unloaded vCPU of the 2-vCPU Intel Xeon host the benchmark was
#: calibrated on).  Normalised seconds are "seconds at this speed".
REFERENCE_SAMPLE_S = 0.0001

#: Opcode -> handler index.  Integer keys: a str-keyed dict would probe
#: differently under each process's hash seed, and so would the kernel's
#: speed.
_TABLE = {10: 1, 11: 2, 12: 3, 13: 4, 14: 5, 15: 6}
_OPS = (10, 11, 12, 13, 14, 15)


class _Slot:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_SLOT = _Slot()


def _step(acc, op):
    code = _TABLE[op]
    if code == 1:
        return acc + 7
    if code == 2:
        return acc - 3
    if code == 3:
        return (acc * 5) & 0xFFFF
    if code == 4:
        return acc & 0x7FFF
    if code == 5:
        return acc | 1
    return (acc << 1) & 0xFFFF


def kernel(rounds: int = 150) -> int:
    """A fixed slice of interpreter-shaped work: dispatch on a dict,
    call a function, read and write an attribute.  Allocation-free."""
    slot = _SLOT
    acc = slot.value
    for _ in range(rounds):
        for op in _OPS:
            acc = _step(acc, op)
        slot.value = acc
    return acc


def sample() -> float:
    """Seconds one kernel run takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples machine speed on SIGALRM while the main thread works.

    Use as a context manager around the whole measured phase, and call
    :meth:`mark` before and after each timed region; :meth:`factor`
    gives the region's slowdown against the reference machine.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Slowdown against the reference during samples ``since``..now.

        A region too short to contain a sample takes one now.  The top
        tenth of samples is dropped: a sample that lands on a page fault
        or a host preemption says nothing about sustained speed.
        """
        window = self.samples[since:]
        if not window:
            window = [sample()]
        window = sorted(window)
        keep = window[: max(1, len(window) - len(window) // 10)]
        return sum(keep) / len(keep) / REFERENCE_SAMPLE_S
