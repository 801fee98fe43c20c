"""Collective destination patterns: what CPLANT-class clusters run.

Synthetic random patterns miss the structured exchanges of real
parallel applications.  Three standard collectives, modelled as
stationary destination patterns (each host keeps emitting the
destination sequence the collective's steady state would produce):

* :class:`AllToAllTraffic` -- personalised all-to-all exchange: every
  host cycles deterministically through all other hosts, offset by its
  own id so no destination is hit by every source at once;
* :class:`AllReduceTraffic` -- ``mode="ring"`` sends every chunk to the
  ring successor (the bandwidth-optimal allreduce); ``mode="tree"``
  alternates the up-tree reduce and down-tree broadcast edges of a
  binary host tree;
* :class:`IncastTraffic` -- many-to-one: every host targets one sink
  (the classic storage/parameter-server incast stressor; the paper's
  hotspot pattern blends this with uniform background, incast is the
  pure case).

All three register in :mod:`repro.traffic.registry`, join the
tournament matrix and compose with any arrival process.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern
from .registry import PATTERNS, Kwarg, PatternSpec


class AllToAllTraffic(TrafficPattern):
    """Personalised all-to-all: each host cycles through all others.

    Host ``s`` sends to ``s+1, s+2, ..., s-1`` (mod H) and wraps --
    a deterministic round of the full exchange, self-skipped.  The
    offset start means step ``k`` of the round is a permutation (every
    destination receives from exactly one source), matching the
    schedule of a well-implemented MPI_Alltoall.
    """

    name = "all-to-all"

    def __init__(self, graph: NetworkGraph) -> None:
        super().__init__(graph)
        if graph.num_hosts < 2:
            raise ValueError("all-to-all needs at least two hosts")
        self._cursor: Dict[int, int] = {}

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        n = self.graph.num_hosts
        step = self._cursor.get(src_host, 1)
        self._cursor[src_host] = step % (n - 1) + 1
        return (src_host + step) % n


class AllReduceTraffic(TrafficPattern):
    """Ring or binary-tree allreduce phases as a destination pattern.

    ``mode="ring"``: every chunk goes to the ring successor
    ``(src + 1) mod H`` -- the steady state of reduce-scatter +
    allgather, where all 2(H-1) steps use the same neighbour edge.

    ``mode="tree"``: hosts form an implicit binary tree (host 0 the
    root, children of ``h`` at ``2h+1``/``2h+2``); each host cycles
    through its tree neighbours -- parent first (the reduce phase),
    then its children (the broadcast phase).
    """

    name = "allreduce"

    def __init__(self, graph: NetworkGraph, mode: str = "ring") -> None:
        super().__init__(graph)
        if graph.num_hosts < 2:
            raise ValueError("allreduce needs at least two hosts")
        if mode not in ("ring", "tree"):
            raise ValueError(f"allreduce mode must be 'ring' or 'tree', "
                             f"got {mode!r}")
        self.mode = mode
        n = graph.num_hosts
        #: per-host destination cycle (tree mode; ring needs none)
        self._cycle: List[List[int]] = []
        if mode == "tree":
            for h in range(n):
                neigh = []
                if h > 0:
                    neigh.append((h - 1) // 2)     # parent (reduce)
                for c in (2 * h + 1, 2 * h + 2):   # children (broadcast)
                    if c < n:
                        neigh.append(c)
                self._cycle.append(neigh)
        self._cursor: Dict[int, int] = {}

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        if self.mode == "ring":
            return (src_host + 1) % self.graph.num_hosts
        cycle = self._cycle[src_host]
        if not cycle:  # a lone root with no children cannot happen (H>=2)
            return None
        i = self._cursor.get(src_host, 0)
        self._cursor[src_host] = (i + 1) % len(cycle)
        return cycle[i]


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


def _two_hosts(g: NetworkGraph) -> bool:
    return g.num_hosts >= 2


PATTERNS.register(PatternSpec(
    name="all-to-all",
    description="personalised all-to-all exchange: each host cycles "
                "deterministically through every other host",
    build=AllToAllTraffic,
    supports=_two_hosts,
))

PATTERNS.register(PatternSpec(
    name="allreduce",
    description="allreduce phases: ring successor ('ring') or binary-"
                "tree reduce/broadcast neighbours ('tree')",
    build=AllReduceTraffic,
    kwargs=(Kwarg("mode", str, "ring", "'ring' or 'tree'"),),
    supports=_two_hosts,
    label=lambda kw: f"allreduce-{kw.get('mode', 'ring')}",
))

PATTERNS.register(PatternSpec(
    name="incast",
    description="many-to-one: every host targets one sink host "
                "(pure incast; the sink stays silent)",
    build=IncastTraffic,
    kwargs=(Kwarg("target", int, 0, "sink host id"),),
    supports=_two_hosts,
    label=lambda kw: f"incast@{kw.get('target', 0)}",
))
