"""Minimal discrete-event simulation engine.

A binary-heap event queue over integer picosecond timestamps.  Events
are callables plus pre-bound positional arguments; ties are broken by
a sequence number drawn when the event is scheduled, which makes every
simulation fully deterministic for a given seed.

The hot-path contract
---------------------

The network models schedule millions of events per run, so the
simulator exposes its queue instead of hiding it behind a call:

* :attr:`Simulator.heap` is the event list itself -- ``(t_ps, seq, fn,
  args)`` entries under :mod:`heapq` -- and the run loops alias it;
* :attr:`Simulator.next_seq` is the bound sequence counter
  (``itertools.count(1).__next__``) that :meth:`Simulator.at` draws
  from too;
* :attr:`Simulator.cur_seq` is the ``seq`` of the event being executed,
  and infinite between runs, when everything at or before ``now`` has
  run.

An engine's hot path pushes ``(t, next_seq(), fn, args)`` itself.  It
may also draw a ``seq`` now and push the entry later (or never): an
entry keeps the place in the ``(t, seq)`` order it reserved, and
``(t, seq) < (now, cur_seq)`` says whether it would already have run.
That is how the packet engine defers channel releases nobody waits
for and how the traffic process keeps its ticks off the heap, with
every event still running in the order plain :meth:`Simulator.at`
calls would give.  Pass arguments through the entry rather than a
closure: a ``(fn, args)`` entry costs one tuple, a capturing lambda a
code-object lookup plus one cell per free variable.

The engine knows nothing about networks.  It offers a *progress
watchdog* hook: a callback invoked at a fixed interval that may raise
(:class:`DeadlockError` is provided for the network layer's use --
deliberately mis-routed configurations, e.g. minimal routing on a torus
*without* in-transit buffers, genuinely deadlock and tests assert that
we detect it).
"""

from __future__ import annotations

import heapq
import json
from itertools import count
from time import perf_counter as _perf_counter
from typing import Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop

#: :attr:`Simulator.cur_seq` outside the run loops: every event at or
#: before ``now`` has run, so any reserved ``(t, seq)`` with ``t <= now``
#: compares as past
_BETWEEN_RUNS = float("inf")


class DeadlockError(RuntimeError):
    """Raised when the configured watchdog detects lack of progress.

    Raised by a network's watchdog, ``diagnosis`` carries the
    JSON-safe stall dump built by
    :func:`repro.sim.invariants.diagnose_stall` -- channel owners,
    blocked worms, route legs and the detected wait-for cycle -- and
    the rendered dump is appended to the message, so a deadlocked run
    names its cycle instead of just reporting "no progress".
    """

    def __init__(self, message: str = "",
                 diagnosis: Optional[dict] = None) -> None:
        if diagnosis is not None:
            cycle = diagnosis.get("wait_for_cycle")
            if cycle:
                message += "\nwait-for cycle:\n  " + "\n  ".join(
                    (f"pid {n['waiter']} waits on {n['waits_on']} "
                     f"held by pid {n['held_by']}")
                    if isinstance(n, dict) else str(n) for n in cycle)
            message += ("\ndeadlock diagnosis:\n"
                        + json.dumps(diagnosis, indent=2, sort_keys=True))
        super().__init__(message)
        self.diagnosis = diagnosis


class Simulator:
    """Event queue with integer picosecond time."""

    __slots__ = ("now", "events", "wall_s", "heap", "next_seq", "cur_seq",
                 "_watchdog", "_watchdog_interval", "_watchdog_gen")

    def __init__(self) -> None:
        self.now: int = 0
        #: events executed so far (drives the events/sec perf counters)
        self.events: int = 0
        #: wall-clock seconds spent inside the run loops
        self.wall_s: float = 0.0
        #: the event queue: ``(t_ps, seq, fn, args)`` under heapq
        self.heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        #: draws the next tie-breaking sequence number
        self.next_seq: Callable[[], int] = count(1).__next__
        #: ``seq`` of the event being executed; infinite between runs
        self.cur_seq: float = _BETWEEN_RUNS
        self._watchdog: Optional[Callable[[], None]] = None
        self._watchdog_interval: int = 0
        #: bumped by every set_watchdog; a tick of an older chain ends it
        self._watchdog_gen: int = 0

    @property
    def events_per_s(self) -> float:
        """Events processed per wall-clock second of run-loop time."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def at(self, time_ps: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps`` (>= now)."""
        if time_ps < self.now:
            raise ValueError(f"cannot schedule in the past "
                             f"({time_ps} < {self.now})")
        _heappush(self.heap, (time_ps, self.next_seq(), fn, args))

    def after(self, delay_ps: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` at ``now + delay_ps``."""
        self.at(self.now + delay_ps, fn, *args)

    def set_watchdog(self, interval_ps: int,
                     check: Callable[[], None]) -> None:
        """Run ``check()`` every ``interval_ps`` of simulated time.

        The check runs as an ordinary event; raising from it aborts the
        simulation (used for deadlock detection).  A later call
        replaces the check and its interval: only the newest tick chain
        survives.
        """
        if interval_ps <= 0:
            raise ValueError("watchdog interval must be positive")
        self._watchdog = check
        self._watchdog_interval = interval_ps
        self._watchdog_gen += 1
        self.after(interval_ps, self._watchdog_tick, self._watchdog_gen)

    def _watchdog_tick(self, gen: int) -> None:
        if gen != self._watchdog_gen or self._watchdog is None:
            return
        self._watchdog()
        self.after(self._watchdog_interval, self._watchdog_tick, gen)

    def clear(self) -> None:
        """Drop every pending event and the watchdog (end of a run).

        Heap entries and the watchdog hold bound methods of whatever
        scheduled them -- the network, the traffic process -- and those
        hold the simulator: a ``sim -> heap -> method -> network ->
        sim`` cycle that only a full garbage collection would reclaim.
        Clearing breaks it, so a finished run's network (and every slot
        array and schedule it references) is freed by reference count
        as soon as its owner lets go.
        """
        self.heap.clear()           # in place: the run loops alias it
        self._watchdog = None

    @property
    def pending_events(self) -> int:
        return len(self.heap)

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next event, or None when idle."""
        return self.heap[0][0] if self.heap else None

    def run_until(self, t_end_ps: int) -> None:
        """Process every event with time <= ``t_end_ps``; leave
        ``now == t_end_ps`` afterwards."""
        heap = self.heap
        pop = _heappop
        done = 0
        t0 = _perf_counter()
        try:
            while heap and heap[0][0] <= t_end_ps:
                time_ps, self.cur_seq, fn, args = pop(heap)
                self.now = time_ps
                fn(*args)
                done += 1
        finally:
            self.cur_seq = _BETWEEN_RUNS
            self.events += done
            self.wall_s += _perf_counter() - t0
        self.now = max(self.now, t_end_ps)

    def run_until_idle(self, max_time_ps: Optional[int] = None) -> None:
        """Process events until the queue is empty (or ``max_time_ps``)."""
        heap = self.heap
        pop = _heappop
        done = 0
        t0 = _perf_counter()
        try:
            while heap:
                if max_time_ps is not None and heap[0][0] > max_time_ps:
                    self.now = max_time_ps
                    return
                time_ps, self.cur_seq, fn, args = pop(heap)
                self.now = time_ps
                fn(*args)
                done += 1
        finally:
            self.cur_seq = _BETWEEN_RUNS
            self.events += done
            self.wall_s += _perf_counter() - t0
