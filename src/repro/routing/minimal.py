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
sources share them).  It explores neighbours in ascending switch id and
stops at the alternative cap, so it lists exactly what the per-pair DFS
of :mod:`repro.routing.reference` lists, in the same order -- the
property the tests pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..topology.graph import NetworkGraph

#: one enumerated path: ``(switch_path, link_ids)``
PathLinks = Tuple[Tuple[int, ...], Tuple[int, ...]]
#: one enumerated path with its cut positions counted from the
#: destination (:func:`shared_suffix_paths`): ``(switch_path, link_ids,
#: fresh, down)``
CutPath = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...],
                 Tuple[int, ...]]


def minimal_dag_successors(g: NetworkGraph,
                           dist_to_dst: List[int],
                           ) -> List[List[Tuple[int, int]]]:
    """``succ[s]``: ``(neighbour, link_id)`` pairs one hop closer to the
    destination, in ascending switch id.

    This is the adjacency of the shortest-path DAG toward the
    destination of ``dist_to_dst``, derived once per destination and
    shared by every source's enumeration.
    """
    return [[(nb, lid) for nb, lid in g.sorted_neighbors(s)
             if dist_to_dst[nb] == dist_to_dst[s] - 1]
            for s in range(g.num_switches)]


def shared_suffix_paths(order: Iterable[Tuple[int, int]],
                        succ: List[List[Tuple[int, int]]],
                        paths: Dict[int, List[tuple]],
                        cap: int,
                        up_end: Optional[Sequence[int]] = None,
                        ) -> Dict[int, List[tuple]]:
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

    Given the orientation's ``up_end``, each entry also carries where
    the path must be cut into legal up*/down* legs:
    ``(switch_path, link_ids, fresh, down)`` (:data:`CutPath`), the
    cut positions counted from the destination (``r`` is switch index
    ``len(link_ids) - r``), when the path is entered on a fresh leg and
    right after a down hop.  Prefixing a down hop passes ``down`` on for
    both; an up hop passes ``fresh`` on for a fresh entry and cuts
    right before itself after a down hop -- the greedy rule of
    :func:`repro.routing.itb._cut_indices`, without rescanning a path.
    The sinks are seeded with ``(path, (), (), ())``.
    """
    for state, s in order:
        head = (s,)
        out: List[tuple] = []
        for nxt, lid in succ[state]:
            room = cap - len(out)
            if room <= 0:
                break
            first = (lid,)
            suffixes = paths[nxt][:room]
            if up_end is None:
                out.extend([(head + p, first + lids)
                            for p, lids in suffixes])
            elif up_end[lid] != s:      # up hop
                out.extend([(head + p, first + lids, fresh,
                             (len(lids) + 1,) + fresh)
                            for p, lids, fresh, _down in suffixes])
            else:                       # down hop
                out.extend([(head + p, first + lids, down, down)
                            for p, lids, _fresh, down in suffixes])
        paths[state] = out
    return paths


def minimal_path_links_to(g: NetworkGraph, dst: int,
                          dist_to_dst: List[int], max_paths: int = 10,
                          up_end: Optional[Sequence[int]] = None,
                          ) -> Dict[int, List[tuple]]:
    """Every switch's capped minimal ``(switch_path, link_ids)`` list
    toward ``dst`` (``dst`` itself lists ``((dst,), ())``; a switch that
    cannot reach it has no entry), from one pass over the DAG.  Given
    ``up_end``, the entries are :data:`CutPath` and carry their cuts
    (:func:`shared_suffix_paths`)."""
    order = [(s, s) for s in sorted(range(g.num_switches),
                                    key=dist_to_dst.__getitem__)
             if dist_to_dst[s] > 0]
    sink = ((dst,), ()) if up_end is None else ((dst,), (), (), ())
    return shared_suffix_paths(order, minimal_dag_successors(g, dist_to_dst),
                               {dst: [sink]}, max_paths, up_end)
