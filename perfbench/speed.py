"""Processor speed sampling, so timings on a shared host can be compared.

On a shared host the speed of a core drifts by up to a third within
seconds, as other tenants load the machine; CPU time drifts with it.  A
`Speedometer` samples that speed while it is installed: every
`INTERVAL_S` of the main thread's CPU time (a SIGPROF timer) it runs a
fixed pure-Python reference loop and records the CPU time the loop took.
`normalise(a, b)` converts the CPU time the main thread spent between two
`time.thread_time()` stamps, minus the samples inside that window, to
seconds at reference speed: each stretch between two samples is scaled by
`REFERENCE_S` over the local loop time.  At reference speed the loop takes
`REFERENCE_S`; that is the speed of the 2-core Intel Xeon the benchmark was
written on, unloaded, so there normalised seconds read about as CPU
seconds.  The benchmark's clock is the thread's and not the process's,
because while a process CPU timer is armed Linux advances the process clock
only at scheduler ticks; confprod runs on the main thread, with BLAS pinned
to one thread.

Load from other tenants is often on one core and not the others, and the
loop does not show all of what it costs the program.  So the thread is
pinned to the fastest core it may run on, and every `HOP_EVERY` samples it
times the loop on the next other core and moves there if that core is
clearly faster (`HOP_GAIN`).

The local loop time is the median of three neighbouring samples, so one
sample hit by an interrupt does not count.  A loop runs at install and at
removal too, so every window has a sample on each side.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from time import thread_time

INTERVAL_S = 0.05
REFERENCE_LOOPS = 25_000
REFERENCE_S = 2.0e-3
HOP_EVERY = 20
HOP_GAIN = 0.9


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return total


def timed_loop() -> float:
    start = thread_time()
    reference_loop()
    return thread_time() - start


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []
        self.hops = 0
        self._allowed = sorted(os.sched_getaffinity(0))
        self._core = None
        self._previous = None
        self._local: list[float] | None = None

    def _pin(self, core: int) -> None:
        os.sched_setaffinity(0, {core})
        self._core = core

    def _sample(self, *_) -> None:
        start = thread_time()
        loop = timed_loop()
        if self._core is not None and len(self.loops) % HOP_EVERY == 0:
            here = self._core
            others = [c for c in self._allowed if c != here]
            there = others[len(self.loops) // HOP_EVERY % len(others)]
            self._pin(there)
            elsewhere = timed_loop()
            if elsewhere < HOP_GAIN * loop:
                loop = elsewhere
                self.hops += 1
            else:
                self._pin(here)
        self.starts.append(start)
        self.ends.append(thread_time())
        self.loops.append(loop)

    def __enter__(self) -> "Speedometer":
        if len(self._allowed) > 1:
            times = {}
            for core in self._allowed:
                self._pin(core)
                times[core] = timed_loop()
            self._pin(min(times, key=times.get))
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        os.sched_setaffinity(0, self._allowed)
        self.finish()

    def finish(self) -> None:
        """Fix the local loop times from the samples taken."""
        self._local = [statistics.median(self.loops[max(0, i - 1):i + 2])
                       for i in range(len(self.loops))]

    @property
    def samples(self) -> int:
        return len(self.loops)

    def loop_s(self) -> float:
        """Median CPU time of one reference loop over the whole window."""
        return statistics.median(self.loops)

    def normalise(self, a: float, b: float) -> float:
        """Seconds at reference speed of the thread's CPU time between a and b."""
        local = self._local
        if local is None:
            raise RuntimeError("normalise() needs a finished Speedometer")
        last = len(local) - 1
        total = 0.0
        # gap j runs from the end of sample j-1 to the start of sample j
        j = bisect.bisect_right(self.ends, a)
        while True:
            lo = self.ends[j - 1] if j > 0 else float("-inf")
            hi = self.starts[j] if j <= last else float("inf")
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                speed = (local[max(j - 1, 0)] + local[min(j, last)]) / 2
                total += overlap * REFERENCE_S / speed
            if hi >= b:
                return total
            j += 1
