"""Bit-reversal permutation traffic.

"The destination of a message is computed by reversing the bits of the
source host identification number" -- a classic adversarial permutation
from parallel numerical algorithms (FFT-style data exchanges).  It
requires a power-of-two host count; hosts whose id is a palindrome map
to themselves and generate no traffic (32 of the 512 hosts on the
paper's 9-bit id space).
"""

from __future__ import annotations

from ..topology.graph import NetworkGraph
from .base import PermutationTraffic


def reverse_bits(value: int, width: int) -> int:
    """Reverse the ``width`` low bits of ``value``."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class BitReversalTraffic(PermutationTraffic):
    """Fixed permutation: ``dst = bit_reverse(src)``."""

    name = "bit-reversal"

    def __init__(self, graph: NetworkGraph) -> None:
        n = graph.num_hosts
        if n < 2 or n & (n - 1):
            raise ValueError(
                f"bit-reversal needs a power-of-two host count, got {n}")
        width = n.bit_length() - 1
        super().__init__(graph, [reverse_bits(h, width) for h in range(n)])


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
