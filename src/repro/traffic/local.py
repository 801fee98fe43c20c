"""Local traffic: destinations close to the source (Section 4.2/4.7.4).

"Message destinations are, at most, 3 switches away from the source
host, and are randomly computed."  We interpret "k switches away" as a
switch-graph hop distance of at most ``radius`` between the source's
and the destination's switches (hosts on the source's own switch are
distance 0 and included), matching the remark that up*/down* "is always
able to use a minimal path when the destination is ... connected to the
same switch".  The paper also studies a 4-switch radius; ``radius`` is
a parameter.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern


class LocalTraffic(TrafficPattern):
    """Uniform among hosts whose switch is within ``radius`` hops."""

    name = "local"

    def __init__(self, graph: NetworkGraph, radius: int = 3) -> None:
        super().__init__(graph)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = radius
        # candidate destination hosts per *switch* (hosts of one switch
        # share the neighbourhood); the source host is excluded at
        # sampling time
        self._candidates: List[List[int]] = []
        for s in graph.switches():
            dist = graph.shortest_distances(s)
            hosts = [h.id for h in graph.hosts if dist[h.switch] <= radius]
            self._candidates.append(hosts)
        if any(len(c) < 2 for c in self._candidates):
            raise ValueError(
                f"radius {radius} leaves some switch with no destination")

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        cands = self._candidates[self.graph.host_switch(src_host)]
        # src_host is always in its own switch's candidate list; skip it
        d = cands[rng.randrange(len(cands))]
        while d == src_host:
            d = cands[rng.randrange(len(cands))]
        return d


def _register() -> None:
    from .registry import PATTERNS, Kwarg, PatternSpec

    PATTERNS.register(PatternSpec(
        name="local",
        description="uniform among hosts at most `radius` switches "
                    "away (Section 4.7.4)",
        build=LocalTraffic,
        kwargs=(Kwarg("radius", int, 3, "switch-hop radius"),),
        supports=lambda g: g.num_hosts >= 2,
        label=lambda kw: f"local(r={kw.get('radius', 3)})",
    ))


_register()
