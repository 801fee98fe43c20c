"""Extension permutation patterns: matrix transpose and complement.

Not part of the paper's evaluation, but standard companions of
bit-reversal in the interconnection-network literature; included so the
extension benches can probe ITB behaviour under other adversarial
permutations.
"""

from __future__ import annotations

import random
from typing import Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern


class TransposeTraffic(TrafficPattern):
    """``dst`` swaps the high and low halves of the source id bits.

    Requires a host count that is a power of four (even bit width).
    """

    name = "transpose"

    def __init__(self, graph: NetworkGraph) -> None:
        super().__init__(graph)
        n = graph.num_hosts
        if n < 4 or n & (n - 1):
            raise ValueError("transpose needs a power-of-two host count")
        width = n.bit_length() - 1
        if width % 2:
            raise ValueError(
                "transpose needs an even id width (power-of-four hosts)")
        half = width // 2
        mask = (1 << half) - 1
        self._dest = [((h & mask) << half) | (h >> half) for h in range(n)]

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        dst = self._dest[src_host]
        return None if dst == src_host else dst

    def active_hosts(self) -> list[int]:
        return [h for h in range(self.graph.num_hosts) if self._dest[h] != h]


class ComplementTraffic(TrafficPattern):
    """``dst = ~src``: every bit of the source id flipped."""

    name = "complement"

    def __init__(self, graph: NetworkGraph) -> None:
        super().__init__(graph)
        n = graph.num_hosts
        if n < 2 or n & (n - 1):
            raise ValueError("complement needs a power-of-two host count")
        self._mask = n - 1

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        return src_host ^ self._mask


def _register() -> None:
    from .registry import PATTERNS, PatternSpec, power_of_two_hosts

    PATTERNS.register(PatternSpec(
        name="transpose",
        description="fixed permutation swapping the high and low "
                    "halves of the host id bits",
        build=TransposeTraffic,
        supports=lambda g: (power_of_two_hosts(g)
                            and (g.num_hosts.bit_length() - 1) % 2 == 0),
        topology_note="power-of-four host count",
    ))
    PATTERNS.register(PatternSpec(
        name="complement",
        description="fixed permutation dst = ~src (all id bits flipped)",
        build=ComplementTraffic,
        supports=power_of_two_hosts,
        topology_note="power-of-two host count",
    ))


_register()
