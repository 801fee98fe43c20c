"""Performance instrumentation for the simulation core.

Two small pieces, both opt-in (zero overhead on the default path):

* :class:`PerfReport` -- wall-clock and throughput snapshot of one
  ``run_simulation`` call (events/sec, messages/sec, setup vs event-loop
  split), handed frozen to the callable given as
  ``run_simulation(perf=...)`` (``perf=reports.append`` collects them).
  Deliberately *not* part of :class:`~repro.metrics.summary.
  RunSummary`: run summaries are simulation results (deterministic,
  cacheable, machine-independent), while perf numbers describe the host
  that produced them.
* :func:`profile_to` -- context manager capturing a :mod:`cProfile`
  trace of the wrapped block into a binary stats file (inspect with
  ``python -m pstats FILE`` or :class:`pstats.Stats`).

``benchmarks/sim_core.py`` builds its ``BENCH_sim_core.json`` from
these reports; ``scripts/check_bench_regression.py`` compares two such
files in CI.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional


@dataclass(frozen=True)
class PerfReport:
    """Host-side cost of one simulation run.

    ``sim_wall_s`` covers the event loop only (warm-up + measurement);
    ``setup_wall_s`` the topology/table/network construction that
    preceded it; ``tables_wall_s`` the part of set-up spent obtaining
    the routing tables (a full table build when cold, ~0 on a memo hit
    or when the caller passed tables in); ``schedule_wall_s`` the time
    between set-up and loop spent obtaining the run's traffic schedule
    (``TrafficProcess.pregenerate`` when cold, ~0 on a memo hit, on
    every engine: a batch engine is primed with it, any other run
    replays it in the loop); ``wall_s`` the whole ``run_simulation``
    call.  ``events`` and
    ``messages_delivered`` count the full run, so the rates are
    loop-throughput figures, not measurement-window statistics.
    """

    wall_s: float
    setup_wall_s: float
    sim_wall_s: float
    events: int
    messages_delivered: int
    sim_time_ps: int
    tables_wall_s: float = 0.0
    schedule_wall_s: float = 0.0

    @property
    def events_per_s(self) -> float:
        return self.events / self.sim_wall_s if self.sim_wall_s > 0 else 0.0

    @property
    def messages_per_s(self) -> float:
        return (self.messages_delivered / self.sim_wall_s
                if self.sim_wall_s > 0 else 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": round(self.wall_s, 6),
            "setup_wall_s": round(self.setup_wall_s, 6),
            "tables_wall_s": round(self.tables_wall_s, 6),
            "schedule_wall_s": round(self.schedule_wall_s, 6),
            "sim_wall_s": round(self.sim_wall_s, 6),
            "events": self.events,
            "events_per_s": round(self.events_per_s, 1),
            "messages_delivered": self.messages_delivered,
            "messages_per_s": round(self.messages_per_s, 1),
            "sim_time_ps": self.sim_time_ps,
        }

    def oneline(self) -> str:
        return (f"wall {self.wall_s:.3f}s (setup {self.setup_wall_s:.3f}s "
                f"(tables {self.tables_wall_s:.3f}s) "
                f"+ schedule {self.schedule_wall_s:.3f}s "
                f"+ loop {self.sim_wall_s:.3f}s), "
                f"{self.events} events ({self.events_per_s:,.0f}/s), "
                f"{self.messages_delivered} messages "
                f"({self.messages_per_s:,.0f}/s)")


@contextmanager
def profile_to(path: Optional[str]) -> Iterator[None]:
    """Capture a cProfile trace of the block into ``path``.

    No-op when ``path`` is falsy, so call sites can pass the optional
    flag straight through.  The file is binary pstats data::

        python -m pstats profile.out   # interactive
        python -c "import pstats; pstats.Stats('profile.out') \\
            .sort_stats('tottime').print_stats(20)"
    """
    if not path:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)


now = time.perf_counter  # short alias for instrumentation call sites
