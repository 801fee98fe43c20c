"""Collective destination pattern: many-to-one incast.

:class:`IncastTraffic` sends every host's traffic to one ``target``
sink -- the classic storage/parameter-server incast stressor.  The
paper's hotspot pattern blends this with uniform background; incast is
the pure case.  The ``tournament`` study runs it.
"""

from __future__ import annotations

import random
from typing import Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern
from .registry import PATTERNS, Kwarg, PatternSpec


class IncastTraffic(TrafficPattern):
    """Many-to-one: every host sends to the ``target`` sink.

    The sink itself generates nothing (``active_hosts`` excludes it),
    so the offered load concentrates entirely on one ejection port --
    the worst case for the paper's accepted-traffic metric and a
    stress test for in-transit buffering near the sink's switch.
    """

    name = "incast"

    def __init__(self, graph: NetworkGraph, target: int = 0) -> None:
        super().__init__(graph)
        if graph.num_hosts < 2:
            raise ValueError("incast needs at least two hosts")
        if not (0 <= target < graph.num_hosts):
            raise ValueError(f"incast target {target} out of range")
        self.target = target

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        return None if src_host == self.target else self.target

    def active_hosts(self) -> list[int]:
        return [h.id for h in self.graph.hosts if h.id != self.target]


PATTERNS.register(PatternSpec(
    name="incast",
    description="many-to-one: every host targets one sink host "
                "(pure incast; the sink stays silent)",
    build=IncastTraffic,
    kwargs=(Kwarg("target", int, 0, "sink host id"),),
    supports=lambda g: g.num_hosts >= 2,
    label=lambda kw: f"incast@{kw.get('target', 0)}",
))
