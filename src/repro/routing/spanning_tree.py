"""BFS spanning tree used as the substrate of up*/down* routing.

Up*/down* (Autonet [13]) first computes a breadth-first spanning tree of
the switch graph.  The tree only fixes each switch's *level* (BFS depth)
-- the up/down orientation of every link, including non-tree links, is
then derived in :mod:`repro.routing.updown` from levels and switch ids.

The paper's figures place the root at the "top leftmost switch", i.e.
switch 0 in our numbering, so ``root=0`` is the default; the root is a
parameter so the root-placement ablation can move it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..topology.graph import NetworkGraph


@dataclass(frozen=True)
class SpanningTree:
    """Levels and parents of the BFS spanning tree rooted at ``root``."""

    root: int
    level: tuple
    parent: tuple  # parent switch id, -1 for the root

    def depth(self) -> int:
        """Maximum BFS level."""
        return max(self.level)


def build_spanning_tree(g: NetworkGraph, root: int = 0) -> SpanningTree:
    """Breadth-first spanning tree of the switch graph.

    Neighbour exploration follows adjacency order with ties broken toward
    the lower switch id, making the tree deterministic for a given graph.
    """
    if not (0 <= root < g.num_switches):
        raise ValueError(f"root {root} out of range")
    level: List[int] = [-1] * g.num_switches
    parent: List[int] = [-1] * g.num_switches
    level[root] = 0
    frontier = [root]
    while frontier:
        nxt: List[int] = []
        for s in sorted(frontier):
            for nb, _lid in sorted(g.neighbors(s)):
                if level[nb] < 0:
                    level[nb] = level[s] + 1
                    parent[nb] = s
                    nxt.append(nb)
        frontier = nxt
    if any(lv < 0 for lv in level):
        raise ValueError("switch graph is not connected")
    return SpanningTree(root, tuple(level), tuple(parent))
