"""Reference enumerators: the per-pair searches no table builder calls.

Tables are built per destination (:func:`repro.routing.minimal.
minimal_path_links_to`, :func:`repro.routing.updown.
legal_path_links_to`: one BFS and one DAG shared by every source).
The straightforward per-pair searches below are what the tests compare
those kernels against -- same paths, same order, same cap -- and what
``count_minimal_paths`` checks independently.  Calling one of them from
a builder is the pair-by-pair table build growing back.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..topology.graph import NetworkGraph
from .minimal import PathLinks, minimal_dag_successors
from .updown import DOWN, UP, UpDownOrientation, legal_distances_to


def enumerate_minimal_path_links(g: NetworkGraph, src: int, dst: int,
                                 dist_to_dst: List[int],
                                 max_paths: int = 10,
                                 succ: Optional[List[List[Tuple[int, int]]]]
                                 = None,
                                 ) -> List[PathLinks]:
    """Like :func:`enumerate_minimal_paths`, but each result is the pair
    ``(switch_path, link_ids)`` with the traversed link ids resolved
    during the walk: what :func:`repro.routing.minimal.
    minimal_path_links_to` must list for ``src``."""
    if src == dst:
        return [((src,), ())]
    if dist_to_dst[src] < 0:
        return []
    if succ is None:
        succ = minimal_dag_successors(g, dist_to_dst)
    out: List[PathLinks] = []
    path = [src]
    lids: List[int] = []

    def dfs(s: int) -> bool:
        if len(out) >= max_paths:
            return False
        for nb, lid in succ[s]:
            if nb == dst:
                out.append((tuple(path) + (dst,), tuple(lids) + (lid,)))
                if len(out) >= max_paths:
                    return False
                continue
            path.append(nb)
            lids.append(lid)
            ok = dfs(nb)
            path.pop()
            lids.pop()
            if not ok:
                return False
        return True

    dfs(src)
    return out


def enumerate_minimal_paths(g: NetworkGraph, src: int, dst: int,
                            dist_to_dst: List[int],
                            max_paths: int = 10,
                            succ: Optional[List[List[Tuple[int, int]]]]
                            = None,
                            ) -> List[Tuple[int, ...]]:
    """Up to ``max_paths`` minimal switch paths from ``src`` to ``dst``.

    ``dist_to_dst`` must be ``g.shortest_distances(dst)`` (hop counts to
    the destination); passing it in lets callers reuse one BFS per
    destination across all sources.  ``succ`` may hold the matching
    :func:`minimal_dag_successors` result to share that precomputation
    too; it is derived on the fly when omitted.
    """
    return [p for p, _lids in enumerate_minimal_path_links(
        g, src, dst, dist_to_dst, max_paths, succ)]


def count_minimal_paths(g: NetworkGraph, dst: int,
                        dist_to_dst: List[int]) -> List[int]:
    """Number of distinct minimal paths from every switch to ``dst``.

    Dynamic programming over the shortest-path DAG (exact, no cap);
    used by tests to validate the enumerator against an independent
    computation.
    """
    order = sorted(range(g.num_switches), key=lambda s: dist_to_dst[s])
    count = [0] * g.num_switches
    count[dst] = 1
    for s in order:
        if s == dst or dist_to_dst[s] < 0:
            continue
        total = 0
        for nb, _lid in g.neighbors(s):
            if dist_to_dst[nb] == dist_to_dst[s] - 1:
                total += count[nb]
        count[s] = total
    return count


def legal_shortest_distances(g: NetworkGraph, ud: UpDownOrientation,
                             source: int) -> List[int]:
    """Shortest legal up*/down* distance from ``source`` to every switch.

    BFS over the layered (switch, phase) graph; the distance to a switch
    is the minimum over both phases.  All switches are reachable (the
    spanning tree itself is legal), so no -1 sentinel is needed.
    """
    INF = g.num_switches * 2 + 1
    dist = [[INF, INF] for _ in range(g.num_switches)]
    dist[source][UP] = 0
    frontier: List[Tuple[int, int]] = [(source, UP)]
    while frontier:
        nxt: List[Tuple[int, int]] = []
        for s, phase in frontier:
            d = dist[s][phase] + 1
            for nb, lid in g.neighbors(s):
                if ud.is_up(s, nb, lid):
                    if phase == UP and d < dist[nb][UP]:
                        dist[nb][UP] = d
                        nxt.append((nb, UP))
                else:
                    if d < dist[nb][DOWN]:
                        dist[nb][DOWN] = d
                        nxt.append((nb, DOWN))
        frontier = nxt
    return [min(d_up, d_down) for d_up, d_down in dist]


def enumerate_legal_paths(g: NetworkGraph, ud: UpDownOrientation,
                          src: int, dst: int, max_len: int,
                          max_paths: int = 32) -> List[Tuple[int, ...]]:
    """Enumerate up to ``max_paths`` simple legal paths of length <= ``max_len``.

    Depth-first with an admissible remaining-distance bound from
    :func:`legal_distances_to`, exploring neighbours in ascending switch
    id for determinism.  Paths are returned in DFS order (shortest not
    guaranteed first; callers sort as needed).
    """
    if src == dst:
        return [(src,)]
    h = legal_distances_to(g, ud, dst)
    out: List[Tuple[int, ...]] = []
    on_path = [False] * g.num_switches
    on_path[src] = True
    path = [src]

    def dfs(s: int, phase: int) -> bool:
        """Returns False when the path cap has been reached."""
        if len(out) >= max_paths:
            return False
        remaining = max_len - (len(path) - 1)
        for nb, lid in g.sorted_neighbors(s):
            if on_path[nb]:
                continue
            nphase = UP if ud.is_up(s, nb, lid) else DOWN
            if nphase == UP and phase == DOWN:
                continue  # illegal down->up transition
            if nb == dst:
                if remaining < 1:
                    continue
                out.append(tuple(path) + (dst,))
                if len(out) >= max_paths:
                    return False
                continue
            if 1 + h[nb][nphase] > remaining:
                continue  # cannot reach dst legally within the budget
            on_path[nb] = True
            path.append(nb)
            ok = dfs(nb, nphase)
            path.pop()
            on_path[nb] = False
            if not ok:
                return False
        return True

    dfs(src, UP)
    return out
