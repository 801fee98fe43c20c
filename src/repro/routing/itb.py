"""In-transit buffer route construction (Section 3 of the paper).

Given a *minimal* switch path that violates the up*/down* rule, the path
is split at every illegal down->up transition: the packet is addressed to
an **in-transit host** attached to the switch where the violation would
occur, ejected there, and re-injected toward the next sub-destination.
Each resulting sub-path starts a fresh up*/down* phase, so every leg is a
legal route and the overall scheme stays deadlock-free while the packet
follows a minimal path end to end.

:func:`split_path_at_violations` performs the split for one path.
:func:`build_itb_routes` builds the table per destination, not per
pair: one BFS gives the shortest-path DAG toward the destination, one
pass over it (:func:`repro.routing.minimal.minimal_path_links_to`)
lists every source's capped minimal paths together with the link ids
they cross, and each ``(path, link_ids)`` pair is cut into legs by
slicing -- the graph is never probed again.  Concrete in-transit hosts
are assigned by cycling through the hosts of each switch so that the
ITB workload is spread over all NICs attached to it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..topology.graph import NetworkGraph
from .minimal import minimal_path_links_to
from .routes import RouteLeg, SourceRoute
from .updown import UpDownOrientation


def _segment_bounds(path: Sequence[int], lids: Sequence[int],
                    up_end: Sequence[int]) -> List[Tuple[int, int]]:
    """Greedy cut points of ``path`` as (start, end) index pairs.

    ``lids`` are the pre-resolved link ids along the path.  The greedy
    rule -- cut exactly where the first illegal up-traversal would
    happen -- yields the minimum number of cuts for the given path,
    because every segment it produces is a maximal legal prefix of the
    remaining path.
    """
    bounds: List[Tuple[int, int]] = []
    seg_start = 0
    gone_down = False
    for i, lid in enumerate(lids):
        if up_end[lid] == path[i + 1]:      # up traversal
            if gone_down:
                # down->up transition: eject at switch path[i]
                bounds.append((seg_start, i))
                seg_start = i
                gone_down = False
        else:
            gone_down = True
    bounds.append((seg_start, len(path) - 1))
    return bounds


def split_path_at_violations(g: NetworkGraph, ud: UpDownOrientation,
                             path: Sequence[int]) -> List[Tuple[int, ...]]:
    """Split a switch path into maximal legal up*/down* sub-paths.

    Returns the list of sub-paths; consecutive sub-paths share their
    boundary switch (the in-transit switch).  A legal input path comes
    back as a single segment.
    """
    lids = g.path_links(path)
    return [tuple(path[s:e + 1])
            for s, e in _segment_bounds(path, lids, ud.up_end)]


class _ItbHostCycler:
    """Round-robin assignment of in-transit hosts per switch.

    Spreading consecutive ITB assignments over all hosts of a switch
    avoids turning a single NIC into an artificial hotspot during route
    construction (the paper only requires "a host connected to the
    intermediate switch").
    """

    def __init__(self, g: NetworkGraph) -> None:
        self._g = g
        self._next: Dict[int, int] = {}

    def take(self, switch: int) -> int:
        hosts = self._g.hosts_at(switch)
        if not hosts:
            raise ValueError(
                f"switch {switch} has no host to act as in-transit buffer")
        i = self._next.get(switch, 0)
        self._next[switch] = (i + 1) % len(hosts)
        return hosts[i]


def _route_from_path_links(ud: UpDownOrientation, path: Tuple[int, ...],
                           lids: Tuple[int, ...],
                           cycler: _ItbHostCycler) -> SourceRoute:
    """Split one resolved ``(path, link_ids)`` pair into a route."""
    bounds = _segment_bounds(path, lids, ud.up_end)
    if len(bounds) == 1:  # already legal -- the common case
        route = SourceRoute((RouteLeg(path, lids),))
    else:
        legs = tuple([RouteLeg(path[s:e + 1], lids[s:e]) for s, e in bounds])
        route = SourceRoute(
            legs, tuple([cycler.take(leg.end) for leg in legs[:-1]]))
    route._link_ids = lids  # the legs' links, concatenated: exactly these
    return route


def route_from_path(g: NetworkGraph, ud: UpDownOrientation,
                    path: Sequence[int],
                    cycler: _ItbHostCycler) -> SourceRoute:
    """Build a :class:`SourceRoute` for one minimal path, inserting
    in-transit hosts wherever the up*/down* rule requires.

    Link ids are resolved once for the whole path; each leg is a slice
    of the (path, links) pair, so segments never re-probe the graph.
    """
    path = tuple(path)
    return _route_from_path_links(ud, path, g.path_links(path), cycler)


def balance_first_alternatives(
        g: NetworkGraph,
        routes: Dict[Tuple[int, int], Tuple[SourceRoute, ...]],
) -> Dict[Tuple[int, int], Tuple[SourceRoute, ...]]:
    """Reorder each pair's alternatives so the *first* one balances load.

    The SP policy always uses a pair's first table entry.  Plain
    enumeration order is lexicographic, which funnels all SP traffic
    through low-id switches and collapses well before the paper's
    reported ITB-SP throughput.  This pass mimics what ``simple_routes``
    does for the up*/down* baseline: walk the pairs in a deterministic
    interleaved order, promote the alternative with the lowest
    accumulated link weight to the front, and charge one weight unit to
    its links.  RR behaviour is unaffected (it cycles the whole set).
    """
    weight = [0] * g.num_links
    pairs = sorted((p for p in routes if p[0] != p[1]),
                   key=lambda p: ((p[0] + p[1]) % g.num_switches,
                                  p[0], p[1]))
    out = dict(routes)
    for pair in pairs:
        alts = routes[pair]
        if len(alts) > 1:
            best, best_cost = 0, None
            for i, route in enumerate(alts):
                cost = (sum(map(weight.__getitem__, route.link_ids)),
                        len(route.itb_hosts))
                if best_cost is None or cost < best_cost:
                    best, best_cost = i, cost
            if best != 0:
                reordered = (alts[best],) + alts[:best] + alts[best + 1:]
                out[pair] = reordered
        for lid in out[pair][0].link_ids:
            weight[lid] += 1
    return out


def build_itb_routes(g: NetworkGraph, ud: UpDownOrientation,
                     max_routes_per_pair: int = 10,
                     sort_by_itbs: bool = False,
                     balance_sp: bool = True,
                     ) -> Dict[Tuple[int, int], Tuple[SourceRoute, ...]]:
    """Minimal ITB routes for every ordered switch pair.

    Alternatives per pair are the (capped) minimal paths, each split into
    legal legs.  By default they stay in deterministic enumeration order,
    which matches the paper's behaviour: its SP policy "always chooses the
    same minimal path" without optimising the number of in-transit hops
    (the paper reports 0.43 ITBs/message for SP; enumeration order gives
    0.36 on the 8x8 torus, while picking the fewest-ITB alternative --
    ``sort_by_itbs=True``, studied in ``tests/test_itb.py`` -- gives 0.22).
    """
    routes: Dict[Tuple[int, int], Tuple[SourceRoute, ...]] = {}
    cycler = _ItbHostCycler(g)  # shared so ITB duty rotates over all NICs
    for dst in g.switches():
        # one BFS, one DAG and one enumeration pass per destination,
        # shared by every source
        paths_to_dst = minimal_path_links_to(
            g, dst, g.shortest_distances(dst), max_routes_per_pair)
        for src in g.switches():
            if src == dst:
                routes[(src, dst)] = (
                    SourceRoute((RouteLeg((src,), ()),)),)
                continue
            alts = [_route_from_path_links(ud, p, l, cycler)
                    for p, l in paths_to_dst.get(src, ())]
            if sort_by_itbs:
                alts.sort(key=lambda r: (r.num_itbs, r.switch_path))
            routes[(src, dst)] = tuple(alts)
    if balance_sp:
        routes = balance_first_alternatives(g, routes)
    return routes
