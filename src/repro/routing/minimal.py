"""Enumeration of true minimal (shortest) paths between switch pairs.

The in-transit buffer routing always uses minimal paths (Section 3), and
the routing table keeps at most 10 alternatives per pair (Section 4.5).
Shortest paths live on the shortest-path DAG toward the destination: an
edge ``u -> v`` is on some shortest path to ``d`` exactly when
``dist_d[v] == dist_d[u] - 1``.

Table construction works **per destination, not per pair**: one BFS
gives ``dist_d``, :func:`minimal_dag_successors` derives the DAG once,
and :func:`minimal_path_links_to` enumerates every source's capped
alternatives from it in a single pass (:func:`shared_suffix_paths`:
states in increasing distance, each state's list assembled from its
successors' lists, so path suffixes are walked once however many
sources share them).  The per-pair DFS
:func:`enumerate_minimal_path_links` / :func:`enumerate_minimal_paths`
stays as the reference enumerator the tests compare the pass against.

Both explore neighbours in ascending switch id (deterministic) and stop
at the alternative cap, so they return the same lists in the same
order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..topology.graph import NetworkGraph

#: one enumerated path: ``(switch_path, link_ids)``
PathLinks = Tuple[Tuple[int, ...], Tuple[int, ...]]


def minimal_dag_successors(g: NetworkGraph,
                           dist_to_dst: List[int],
                           ) -> List[List[Tuple[int, int]]]:
    """``succ[s]``: ``(neighbour, link_id)`` pairs one hop closer to the
    destination, in ascending switch id.

    This is the adjacency of the shortest-path DAG toward the
    destination of ``dist_to_dst``.  Callers enumerating paths from many
    sources to the same destination compute it once and pass it to
    :func:`enumerate_minimal_paths` /
    :func:`enumerate_minimal_path_links`, which saves re-filtering the
    full neighbour lists at every DFS step.
    """
    return [[(nb, lid) for nb, lid in g.sorted_neighbors(s)
             if dist_to_dst[nb] == dist_to_dst[s] - 1]
            for s in range(g.num_switches)]


def shared_suffix_paths(order: Iterable[Tuple[int, int]],
                        succ: List[List[Tuple[int, int]]],
                        paths: Dict[int, List[PathLinks]],
                        cap: int) -> Dict[int, List[PathLinks]]:
    """Capped path lists of every state of a DAG toward one sink.

    ``paths`` arrives seeded with the sink state(s) and comes back with
    an entry per state of ``order``: up to ``cap`` ``(switch_path,
    link_ids)`` pairs, in the order a depth-first walk that follows
    ``succ`` edges in list order would emit them -- the first ``cap`` of
    ``[(s,) + p for nxt in succ[state] for p in paths[nxt]]``.

    ``order`` lists ``(state, switch)`` with every state after all its
    successors (increasing distance to the sink); ``succ[state]`` holds
    ``(next_state, link_id)``.  Shared by the minimal DAG (a state is a
    switch, ``succ`` is :func:`minimal_dag_successors`) and the
    up*/down* DAG (a state is a (switch, phase) pair,
    :func:`repro.routing.updown.legal_dag_to`).
    """
    for state, s in order:
        head = (s,)
        out: List[PathLinks] = []
        for nxt, lid in succ[state]:
            room = cap - len(out)
            if room <= 0:
                break
            first = (lid,)
            out.extend([(head + p, first + lids)
                        for p, lids in paths[nxt][:room]])
        paths[state] = out
    return paths


def minimal_path_links_to(g: NetworkGraph, dst: int,
                          dist_to_dst: List[int], max_paths: int = 10,
                          ) -> Dict[int, List[PathLinks]]:
    """``src -> enumerate_minimal_path_links(g, src, dst, ...)`` for
    every switch that reaches ``dst``, from one pass over the DAG."""
    order = [(s, s) for s in sorted(range(g.num_switches),
                                    key=dist_to_dst.__getitem__)
             if dist_to_dst[s] > 0]
    return shared_suffix_paths(order, minimal_dag_successors(g, dist_to_dst),
                               {dst: [((dst,), ())]}, max_paths)


def enumerate_minimal_path_links(g: NetworkGraph, src: int, dst: int,
                                 dist_to_dst: List[int],
                                 max_paths: int = 10,
                                 succ: Optional[List[List[Tuple[int, int]]]]
                                 = None,
                                 ) -> List[Tuple[Tuple[int, ...],
                                                 Tuple[int, ...]]]:
    """Like :func:`enumerate_minimal_paths`, but each result is the pair
    ``(switch_path, link_ids)`` with the traversed link ids resolved
    during the walk.

    Table construction needs the link ids of every enumerated path
    anyway; resolving them here (the DFS already has them in hand from
    the adjacency) spares a per-path re-probe of the graph.
    """
    if src == dst:
        return [((src,), ())]
    if dist_to_dst[src] < 0:
        return []
    if succ is None:
        succ = minimal_dag_successors(g, dist_to_dst)
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
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
