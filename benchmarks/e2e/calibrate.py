"""Machine-speed calibration: host time in reference seconds.

The sandboxes this benchmark runs on change speed under it: the same
deterministic 18 s of work takes 14 s or 22 s depending on what the
neighbours of the VM are doing, in bursts of about a second, and CPU
time inflates with wall time, so neither more repetitions inside a
20 s run nor ``process_time`` steadies a host-time metric (README,
"Calibration", has the measurements).

So every timed piece is timed together with the machine: an interval
timer interrupts the process every ``PERIOD_S`` and the handler runs a
small fixed **reference kernel** -- interpreter-bound object and heap
churn, owned by the harness, touching nothing of ``repro`` -- and
records how long it took.  ``NOMINAL_S / kernel time`` is the machine's
speed at that instant; work done is speed integrated over time, so a
piece is reported as

    (wall - time spent in the kernel) * mean speed while it ran

i.e. in seconds of a machine that always runs the kernel in
``NOMINAL_S`` (this sandbox's median).  The kernel is independent of
the program under test, so a real speed-up or regression of the
program changes the reported time exactly as it changes the raw one;
only the variation the kernel sees too is divided out.  Raw seconds
are kept beside every calibrated figure.

Kernel time is read two ways.  Where the timed code runs in the
sampling process itself, the kernel's *wall* time is the machine's
speed, descheduling by the host included.  Where the timed work runs
``elsewhere`` -- pool workers, fabric workers, a server, a fresh
interpreter, all competing with the sampler for the cores -- wall time
would count the workload's own load as machine slowness, so the
kernel's *thread CPU* time is used: blind to descheduling, but also to
the benchmark's own processes.

The handler runs on the main thread, between bytecodes; Python retries
interrupted system calls, forked workers do not inherit the timer and
``exec`` resets the handler, so the program under test is unaffected
beyond the ~4 % of one core the kernel uses.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: sampling period; a sample costs about ``NOMINAL_S``
PERIOD_S = 0.1
#: kernel time on this class of sandbox in its usual state; fixes the
#: scale of a reference second and nothing else
NOMINAL_S = 0.0025


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def step(self, x: int) -> int:
        self.value = (self.value + x) & 1023
        return self.value


_CELLS = [_Cell(i) for i in range(200)]


def kernel() -> Tuple[float, float]:
    """Run the reference kernel; return the (wall, thread CPU) seconds
    it took.  Heap pushes and pops of tuples holding bound methods,
    attribute updates, dict stores: the mix of an event-driven
    simulator, which of the candidates tried (arithmetic, numpy, this)
    tracked both engines' slowdown best."""
    t0, c0 = time.perf_counter(), time.thread_time()
    heap: list = []
    seen = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(2500):
        push(heap, ((i * 7919) % 1000, i, _CELLS[i % 200].step, (i,)))
        if i & 1:
            t, _, fn, args = pop(heap)
            seen[t] = fn(*args)
    return time.perf_counter() - t0, time.thread_time() - c0


class Sampler:
    """Samples the kernel on a timer while ``with sampler:`` is open;
    afterwards converts intervals of that time to reference seconds."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._kernel_s: List[float] = []
        self._kernel_cpu_s: List[float] = []
        #: (label, start, end, elsewhere) of every marked piece
        self._marks: List[Tuple[str, float, float, bool]] = []
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:                 # never nest a sample in a sample
            return
        self._busy = True
        try:
            self._starts.append(time.perf_counter())
            wall, cpu = kernel()
            self._kernel_s.append(wall)
            self._kernel_cpu_s.append(cpu)
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def mark(self, label: str, start: float, end: float,
             elsewhere: bool = False) -> None:
        """Record [start, end] (``perf_counter`` readings) as a piece;
        ``elsewhere`` when its work ran in other processes."""
        self._marks.append((label, start, end, elsewhere))

    @contextmanager
    def timed(self, label: str, elsewhere: bool = False) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.mark(label, start, time.perf_counter(), elsewhere)

    def reference_seconds(self, start: float, end: float,
                          elsewhere: bool = False) -> float:
        """The interval [start, end] in reference seconds.

        Uses the samples that began inside it plus the nearest one on
        either side, so even an interval shorter than the period is
        bracketed by two looks at the machine.  Call after ``with``.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        in_kernel = sum(min(d, end - t) for t, d in
                        zip(self._starts[lo:hi], self._kernel_s[lo:hi]))
        near = (self._kernel_cpu_s if elsewhere else self._kernel_s)[
            max(0, lo - 1):hi + 1]
        speed = sum(NOMINAL_S / d for d in near) / len(near)
        return (end - start - in_kernel) * speed

    def pieces(self) -> List[Tuple[str, float, float]]:
        """(label, raw seconds, reference seconds) per marked piece, in
        the order they were recorded."""
        return [(label, end - start,
                 self.reference_seconds(start, end, elsewhere))
                for label, start, end, elsewhere in self._marks]

    def kernel_median_s(self) -> float:
        return sorted(self._kernel_s)[len(self._kernel_s) // 2]
