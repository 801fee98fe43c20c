"""Hotspot traffic: a share of all messages target one hot host.

"A percentage of traffic is sent to one host ... the rest of the
traffic is generated randomly using a uniform distribution."  The paper
runs 10 simulations with 10 randomly chosen hotspot locations and
reports the throughput of each (Tables 1--3); the experiment harness
draws those locations deterministically from the run seed.
"""

from __future__ import annotations

import random
from typing import Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern


class HotspotTraffic(TrafficPattern):
    """A ``fraction`` share of *all* traffic is directed at the hotspot.

    Only the ``H - 1`` non-hotspot hosts can direct traffic at the
    hotspot, so a naive per-source probability of ``fraction`` realizes
    a directed share of only ``fraction * (H - 1) / H`` of all traffic
    -- below the nominal paper percentage.  The per-source probability
    is therefore compensated to ``fraction * H / (H - 1)`` so the
    directed share across all sources equals ``fraction`` exactly.

    The hotspot additionally receives its uniform share of the
    remaining background traffic; :meth:`realized_hot_fraction` gives
    the exact total probability that a message lands on the hotspot.
    """

    name = "hotspot"

    def __init__(self, graph: NetworkGraph, hotspot: int = 0,
                 fraction: float = 0.05) -> None:
        super().__init__(graph)
        if not (0 <= hotspot < graph.num_hosts):
            raise ValueError(f"hotspot host {hotspot} out of range")
        if not (0.0 < fraction < 1.0):
            raise ValueError("hotspot fraction must be in (0, 1)")
        if graph.num_hosts < 2:
            raise ValueError("hotspot traffic needs at least two hosts")
        h = graph.num_hosts
        directed = fraction * h / (h - 1)
        if directed >= 1.0:
            raise ValueError(
                f"hotspot fraction {fraction} is not realizable with "
                f"{h} hosts (needs per-source probability {directed:.3f})")
        self.hotspot = hotspot
        self.fraction = fraction
        #: compensated per-source probability applied at each
        #: non-hotspot source
        self.directed_fraction = directed

    def realized_hot_fraction(self) -> float:
        """Exact P(destination == hotspot) over all generated traffic.

        The directed share contributes ``fraction``; the uniform
        remainder of every source (including the hotspot host itself,
        whose messages are all uniform) adds its ``1 / (H - 1)`` spill
        onto the hotspot.
        """
        h = self.graph.num_hosts
        return self.fraction + (1.0 - self.directed_fraction) / h

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        if src_host != self.hotspot and rng.random() < self.directed_fraction:
            return self.hotspot
        # uniform over everyone but the source (hot messages from the
        # hotspot host itself fall through to here as well)
        d = rng.randrange(self.graph.num_hosts - 1)
        return d + 1 if d >= src_host else d


def _register() -> None:
    from .registry import PATTERNS, Kwarg, PatternSpec

    PATTERNS.register(PatternSpec(
        name="hotspot",
        description="a fraction of all traffic targets one hot host, "
                    "the rest is uniform (Tables 1-3)",
        build=HotspotTraffic,
        kwargs=(Kwarg("hotspot", int, 0, "hotspot host id"),
                Kwarg("fraction", float, 0.05,
                      "directed share of all traffic, in (0, 1)")),
        supports=lambda g: g.num_hosts >= 2,
        label=lambda kw: (f"hotspot@{kw.get('hotspot', 0)}"
                          f"({kw.get('fraction', 0.05):.0%})"),
    ))


_register()
