"""Bit-reversal permutation traffic.

"The destination of a message is computed by reversing the bits of the
source host identification number" -- a classic adversarial permutation
from parallel numerical algorithms (FFT-style data exchanges).  It
requires a power-of-two host count; hosts whose id is a palindrome map
to themselves and generate no traffic (32 of the 512 hosts on the
paper's 9-bit id space).
"""

from __future__ import annotations

import random
from typing import Optional

from ..topology.graph import NetworkGraph
from .base import TrafficPattern


def reverse_bits(value: int, width: int) -> int:
    """Reverse the ``width`` low bits of ``value``."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class BitReversalTraffic(TrafficPattern):
    """Fixed permutation: ``dst = bit_reverse(src)``."""

    name = "bit-reversal"

    def __init__(self, graph: NetworkGraph) -> None:
        super().__init__(graph)
        n = graph.num_hosts
        if n < 2 or n & (n - 1):
            raise ValueError(
                f"bit-reversal needs a power-of-two host count, got {n}")
        self.width = n.bit_length() - 1
        self._dest = [reverse_bits(h, self.width) for h in range(n)]

    def destination(self, src_host: int, rng: random.Random) -> Optional[int]:
        dst = self._dest[src_host]
        return None if dst == src_host else dst

    def active_hosts(self) -> list[int]:
        return [h for h in range(self.graph.num_hosts)
                if self._dest[h] != h]


def _register() -> None:
    from .registry import PATTERNS, PatternSpec, power_of_two_hosts

    PATTERNS.register(PatternSpec(
        name="bit-reversal",
        description="fixed permutation dst = bit_reverse(src); "
                    "palindromic hosts stay silent",
        build=BitReversalTraffic,
        supports=power_of_two_hosts,
        topology_note="power-of-two host count",
    ))


_register()
