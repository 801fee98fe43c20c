"""Up*/down* link orientation and legal-path machinery (Autonet rules).

After the BFS spanning tree fixes switch levels, every link (tree or
not) gets an "up" end:

1. the end whose switch is **closer to the root** (smaller BFS level);
2. the end whose switch has the **lower id** when both ends are at the
   same level.

A route is *legal* when it never traverses an "up" link after a "down"
link.  Legality lives on the layered graph with a node per (switch,
phase): phase ``UP`` (no down-link taken yet; may still go up or down)
or ``DOWN`` (a down-link has been taken; only down-links are allowed
from here on).

Table construction works **per destination, not per pair**:

* :func:`legal_distances_to` -- one backward BFS over the layered graph
  gives ``h[s][phase]``, the shortest legal continuation of every state
  to the destination (``h[s][UP]`` is the shortest legal distance from
  ``s``);
* :func:`legal_dag_to` -- keeps the edges ``state -> next`` with
  ``h[state] == 1 + h[next]``: the DAG of *all* shortest legal paths to
  that destination, shared by every source;
* :func:`legal_path_links_to` -- every source's capped candidate list
  ``(switch_path, link_ids)`` from one pass over that DAG.

The per-pair machinery the tests compare those kernels against lives in
:mod:`repro.routing.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..topology.graph import NetworkGraph
from .minimal import PathLinks, shared_suffix_paths
from .spanning_tree import SpanningTree, build_spanning_tree

#: phases of the layered legality graph
UP, DOWN = 0, 1


@dataclass(frozen=True)
class UpDownOrientation:
    """Link orientation derived from a spanning tree.

    ``up_end[lid]`` is the switch id of the "up" end of link ``lid``.
    """

    tree: SpanningTree
    up_end: Tuple[int, ...]

    def is_up(self, frm: int, to: int, link_id: int) -> bool:
        """True when traversing ``link_id`` from ``frm`` to ``to`` moves
        in the "up" direction (toward the up end)."""
        del frm  # direction is fully determined by the target end
        return self.up_end[link_id] == to

    def path_is_legal(self, g: NetworkGraph, path: Sequence[int]) -> bool:
        """Check the up*/down* rule for a switch sequence.

        Raises :class:`ValueError` if consecutive switches are unlinked.
        """
        gone_down = False
        for a, b in zip(path, path[1:]):
            lid = g.link_between(a, b)
            if lid is None:
                raise ValueError(f"switches {a} and {b} are not linked")
            if self.is_up(a, b, lid):
                if gone_down:
                    return False
            else:
                gone_down = True
        return True


def orient_links(g: NetworkGraph, root: int = 0,
                 tree: Optional[SpanningTree] = None) -> UpDownOrientation:
    """Assign the "up" end of every link per the Autonet rules."""
    if tree is None:
        tree = build_spanning_tree(g, root)
    up_end: List[int] = []
    for link in g.links:
        la, lb = tree.level[link.a], tree.level[link.b]
        if la < lb:
            up_end.append(link.a)
        elif lb < la:
            up_end.append(link.b)
        else:
            up_end.append(min(link.a, link.b))
    return UpDownOrientation(tree, tuple(up_end))


def legal_distances_to(g: NetworkGraph, ud: UpDownOrientation,
                       dest: int) -> List[List[int]]:
    """Per (switch, phase) minimum legal hops *to* ``dest``.

    ``result[s][phase]`` is the shortest legal continuation from switch
    ``s`` when the path so far ends in phase ``phase`` (also the
    admissible pruning heuristic of the reference enumerator).
    Unreachable states hold a large sentinel (>= 2 * num_switches).
    """
    INF = g.num_switches * 2 + 1
    dist = [[INF, INF] for _ in range(g.num_switches)]
    dist[dest][UP] = 0
    dist[dest][DOWN] = 0
    # Backward BFS: edge (s, p) -> (nb, p') in the forward graph becomes
    # (nb, p') -> (s, p) here.  Enumerate forward edges from every state
    # and relax their sources from their targets.
    frontier: List[Tuple[int, int]] = [(dest, UP), (dest, DOWN)]
    while frontier:
        nxt: List[Tuple[int, int]] = []
        for t, tphase in frontier:
            d = dist[t][tphase] + 1
            # forward edges into (t, tphase): from (s, UP) via an up link
            # (tphase must be UP), or from (s, UP/DOWN) via a down link
            # (tphase must be DOWN).
            for s, lid in g.neighbors(t):
                if ud.is_up(s, t, lid):
                    if tphase == UP and d < dist[s][UP]:
                        dist[s][UP] = d
                        nxt.append((s, UP))
                else:
                    if tphase == DOWN:
                        for sphase in (UP, DOWN):
                            if d < dist[s][sphase]:
                                dist[s][sphase] = d
                                nxt.append((s, sphase))
        frontier = nxt
    return dist


def legal_dag_to(g: NetworkGraph, ud: UpDownOrientation, dest: int,
                 ) -> Tuple[List[List[int]], List[List[Tuple[int, int]]]]:
    """Shortest-legal-path DAG toward ``dest`` over (switch, phase) states.

    Returns ``(h, succ)``: ``h`` is :func:`legal_distances_to` and
    ``succ[2 * s + phase]`` lists ``(next_state, link_id)`` with
    ``next_state = 2 * neighbour + next_phase`` for every legal hop
    that lies on a shortest legal continuation (``h[s][phase] == 1 +
    h[neighbour][next_phase]``), neighbours ascending.  The phase
    transitions are baked in from ``ud.up_end``, so a walk needs no
    ``is_up`` call.  Every walk along ``succ`` from ``(src, UP)`` is a
    shortest legal path to ``dest`` and vice versa; ``h`` strictly
    decreases along it, so it is simple without an ``on_path`` test and
    exactly ``h[src][UP]`` hops long without a bound test.
    """
    h = legal_distances_to(g, ud, dest)
    up_end = ud.up_end
    succ: List[List[Tuple[int, int]]] = []
    for s in range(g.num_switches):
        h_up, h_down = h[s]
        from_up: List[Tuple[int, int]] = []
        from_down: List[Tuple[int, int]] = []
        for nb, lid in g.sorted_neighbors(s):
            if up_end[lid] == nb:       # up hop: only while still UP
                if h_up == 1 + h[nb][UP]:
                    from_up.append((2 * nb + UP, lid))
            else:                       # down hop: lands in DOWN
                d = 1 + h[nb][DOWN]
                if h_up == d:
                    from_up.append((2 * nb + DOWN, lid))
                if h_down == d:
                    from_down.append((2 * nb + DOWN, lid))
        succ.append(from_up)
        succ.append(from_down)
    return h, succ


def legal_path_links_to(g: NetworkGraph, ud: UpDownOrientation, dest: int,
                        max_paths: int = 32) -> Dict[int, List[PathLinks]]:
    """Shortest legal ``(switch_path, link_ids)`` candidates of every
    source toward ``dest``, from one BFS and one DAG: for each ``src !=
    dest`` the same paths, in the same order, as the per-pair bounded
    DFS of :mod:`repro.routing.reference` with ``max_len =
    h[src][UP]``."""
    h, succ = legal_dag_to(g, ud, dest)
    to_go = [d for per_phase in h for d in per_phase]   # by state
    order = [(state, state >> 1)
             for state in sorted(range(len(to_go)), key=to_go.__getitem__)
             if state >> 1 != dest]     # unreachable states just stay empty
    sink = [((dest,), ())]
    by_state = shared_suffix_paths(
        order, succ, {2 * dest + UP: sink, 2 * dest + DOWN: sink}, max_paths)
    return {s: by_state[2 * s + UP] for s in range(g.num_switches)
            if s != dest}
