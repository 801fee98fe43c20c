"""Uniform destination distribution ("the most widely used pattern")."""

from __future__ import annotations

import random
from typing import List, Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern


class UniformTraffic(TrafficPattern):
    """Destination chosen uniformly among all hosts except the source."""

    name = "uniform"

    def __init__(self, graph: NetworkGraph) -> None:
        super().__init__(graph)
        if graph.num_hosts < 2:
            raise ValueError("uniform traffic needs at least two hosts")

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        # draw from [0, n-2] and skip over the source: exactly uniform
        # over the other n-1 hosts with a single RNG call
        d = rng.randrange(self.graph.num_hosts - 1)
        return d + 1 if d >= src_host else d

    def destinations(self, src_host: int, rng: random.Random,
                     n: int) -> List[Optional[int]]:
        # destination() n times with the randrange draw inlined: k random
        # bits, rejected until below the bound (CPython's _randbelow)
        bound = self.graph.num_hosts - 1
        k = bound.bit_length()
        getrandbits = rng.getrandbits
        out: List[Optional[int]] = []
        append = out.append
        for _ in range(n):
            d = getrandbits(k)
            while d >= bound:
                d = getrandbits(k)
            append(d + 1 if d >= src_host else d)
        return out


def _register() -> None:
    from .registry import PATTERNS, PatternSpec

    PATTERNS.register(PatternSpec(
        name="uniform",
        description="uniformly random destination among all other hosts "
                    "(the paper's base pattern)",
        build=UniformTraffic,
        supports=lambda g: g.num_hosts >= 2,
    ))


_register()
