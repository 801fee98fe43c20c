"""CSV trace replay: external workloads plugged into the simulator.

The schema is deliberately minimal -- one message per row::

    time_ns,src,dst
    0.0,3,12
    125.5,0,7

``time_ns`` is the injection time (fractional nanoseconds allowed),
``src``/``dst`` are host ids.  A header row is optional (any first row
whose time field does not parse as a number is skipped).  Rows are
replayed *exactly*: same hosts, same destinations, same times (scaled
by ``time_scale``), independent of the configured injection rate --
the trace **is** the workload, so :class:`TraceReplay` implements both
the destination-pattern and the arrival-process interface and
registers with ``provides_arrivals=True``.

Self-addressed rows (``src == dst``) are tolerated and skipped at
injection time, mirroring how every other pattern treats a
self-destination.
"""

from __future__ import annotations

import csv
import random
from typing import Dict, List, Optional, Tuple

from ..topology.graph import NetworkGraph
from ..units import PS_PER_NS
from .base import ArrivalProcess, TrafficPattern
from .registry import PATTERNS, Kwarg, PatternSpec


def parse_trace_csv(path: str) -> List[Tuple[float, int, int]]:
    """Read and sanity-check (time_ns, src, dst) rows from ``path``."""
    rows: List[Tuple[float, int, int]] = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 fields "
                    f"(time_ns,src,dst), got {len(row)}")
            try:
                t = float(row[0])
            except ValueError:
                if lineno == 1:  # header row
                    continue
                raise ValueError(
                    f"{path}:{lineno}: bad time field {row[0]!r}") from None
            try:
                src, dst = int(row[1]), int(row[2])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad host id in {row[1:]!r}") from None
            if t < 0:
                raise ValueError(f"{path}:{lineno}: negative time {t}")
            rows.append((t, src, dst))
    if not rows:
        raise ValueError(f"trace {path} contains no messages")
    return rows


class TraceReplay(TrafficPattern, ArrivalProcess):
    """Replay a CSV trace: both *where* and *when* come from the file.

    Each host's rows are replayed in time order through two cursors --
    the arrival side consumes injection times, the destination side
    consumes the matching destinations -- which the
    :class:`~repro.traffic.base.TrafficProcess` driver advances in
    lockstep (one ``next_fire_ps`` per ``destination``).
    """

    name = "trace"

    def __init__(self, graph: NetworkGraph, path: str,
                 time_scale: float = 1.0) -> None:
        super().__init__(graph)
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.path = path
        self.time_scale = time_scale
        rows = parse_trace_csv(path)
        n = graph.num_hosts
        per_host: Dict[int, List[Tuple[int, int]]] = {}
        for t, src, dst in rows:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"trace {path}: host pair ({src}, {dst}) out of "
                    f"range for {n} hosts")
            t_ps = max(0, round(t * time_scale * PS_PER_NS))
            per_host.setdefault(src, []).append((t_ps, dst))
        for events in per_host.values():
            events.sort(key=lambda e: e[0])
        self._events = per_host
        self._time_cursor: Dict[int, int] = {}
        self._dest_cursor: Dict[int, int] = {}
        #: total scheduled messages (self-addressed rows included)
        self.total_messages = len(rows)

    def active_hosts(self) -> list[int]:
        return sorted(self._events)

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        i = self._dest_cursor.get(src_host, 0)
        events = self._events.get(src_host, ())
        if i >= len(events):
            return None
        self._dest_cursor[src_host] = i + 1
        dst = events[i][1]
        return None if dst == src_host else dst

    def next_fire_ps(self, host: int, now_ps: int,
                     rng: random.Random) -> Optional[int]:
        i = self._time_cursor.get(host, 0)
        events = self._events.get(host, ())
        if i >= len(events):
            return None
        self._time_cursor[host] = i + 1
        return events[i][0]


PATTERNS.register(PatternSpec(
    name="trace",
    description="CSV trace replay (time_ns,src,dst rows); the trace "
                "supplies both destinations and timing",
    build=TraceReplay,
    kwargs=(Kwarg("path", str, help="CSV file to replay"),
            Kwarg("time_scale", float, 1.0,
                  "multiply every trace time (2.0 = half the rate)")),
    label=lambda kw: f"trace:{kw.get('path', '?')}",
    provides_arrivals=True,
))
