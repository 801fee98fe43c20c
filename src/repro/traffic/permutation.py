"""Extension permutation patterns: matrix transpose and complement.

Not part of the paper's evaluation, but standard companions of
bit-reversal in the interconnection-network literature; included so the
extension benches can probe ITB behaviour under other adversarial
permutations.
"""

from __future__ import annotations

from ..topology.graph import NetworkGraph
from .base import PermutationTraffic


class TransposeTraffic(PermutationTraffic):
    """``dst`` swaps the high and low halves of the source id bits.

    Requires a host count that is a power of four (even bit width).
    """

    name = "transpose"

    def __init__(self, graph: NetworkGraph) -> None:
        n = graph.num_hosts
        if n < 4 or n & (n - 1):
            raise ValueError("transpose needs a power-of-two host count")
        width = n.bit_length() - 1
        if width % 2:
            raise ValueError(
                "transpose needs an even id width (power-of-four hosts)")
        half = width // 2
        mask = (1 << half) - 1
        super().__init__(graph, [((h & mask) << half) | (h >> half)
                                 for h in range(n)])


class ComplementTraffic(PermutationTraffic):
    """``dst = ~src``: every bit of the source id flipped (no host maps
    to itself, so every host sends)."""

    name = "complement"

    def __init__(self, graph: NetworkGraph) -> None:
        n = graph.num_hosts
        if n < 2 or n & (n - 1):
            raise ValueError("complement needs a power-of-two host count")
        super().__init__(graph, [h ^ (n - 1) for h in range(n)])


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
