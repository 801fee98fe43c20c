"""In-transit buffer route construction (Section 3 of the paper).

Given a *minimal* switch path that violates the up*/down* rule, the path
is split at every illegal down->up transition: the packet is addressed to
an **in-transit host** attached to the switch where the violation would
occur, ejected there, and re-injected toward the next sub-destination.
Each resulting sub-path starts a fresh up*/down* phase, so every leg is a
legal route and the overall scheme stays deadlock-free while the packet
follows a minimal path end to end.

:func:`split_path_at_violations` performs the split for one path.
:func:`assemble_itb_routes` is the one recipe that turns candidate
``(path, link_ids, cut_indices)`` triples into a table;
:func:`build_itb_routes` (the paper's scheme) and
:mod:`repro.routing.outflank` differ only in the candidates they feed
it.  :func:`build_itb_routes` lists them per destination, not per pair:
one BFS gives the shortest-path DAG toward the destination and one pass
over it (:func:`repro.routing.minimal.minimal_path_links_to`) lists
every source's capped minimal paths together with the link ids they
cross and where they must be cut, carried along the walk instead of
found by rescanning each path (:func:`_cut_indices`, which outflank's
candidates and :func:`split_path_at_violations` still use).

The assembler does eagerly what needs the whole table: every
alternative's in-transit hosts (cycled through the hosts of each
switch in one global order, so the ITB workload is spread over all NICs
attached to it), the optional fewest-ITBs-first order and the balancing
of first alternatives.  What needs one pair only -- the
:class:`RouteLeg` / :class:`SourceRoute` objects, slices of the
``(path, link_ids)`` pair -- is built on that pair's first lookup
(:class:`repro.routing.table.RouteMap`): a run builds the routes it
sends on, and a leg that many pairs share is one object.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..topology.graph import NetworkGraph
from .minimal import minimal_path_links_to
from .routes import RouteLeg, SourceRoute
from .table import Pair, RouteMap
from .updown import UpDownOrientation

#: one candidate path as its producer hands it to the assembler:
#: ``(switch_path, link_ids, cut_indices)``
Candidate = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
#: one alternative, as the assembler keeps it until first lookup:
#: ``(switch_path, link_ids, cut_indices, itb_hosts)``
Record = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...],
               Tuple[int, ...]]


def _cut_indices(path: Sequence[int], lids: Sequence[int],
                 up_end: Sequence[int]) -> Tuple[int, ...]:
    """Indices ``i`` of the switches ``path[i]`` where the packet is
    ejected to an in-transit host, ascending (empty for a legal path).

    ``lids`` are the pre-resolved link ids along the path.  The greedy
    rule -- cut exactly where the first illegal up-traversal would
    happen -- yields the minimum number of cuts for the given path,
    because every segment it produces is a maximal legal prefix of the
    remaining path.
    """
    cuts: List[int] = []
    gone_down = False
    for i, lid in enumerate(lids):
        if up_end[lid] == path[i + 1]:      # up traversal
            if gone_down:
                # down->up transition: eject at switch path[i]
                cuts.append(i)
                gone_down = False
        else:
            gone_down = True
    return tuple(cuts)


def _segments(cuts: Tuple[int, ...], last: int) -> Iterable[Tuple[int, int]]:
    """``(start, end)`` switch indices of each leg between the cuts."""
    return zip((0,) + cuts, cuts + (last,))


def split_path_at_violations(g: NetworkGraph, ud: UpDownOrientation,
                             path: Sequence[int]) -> List[Tuple[int, ...]]:
    """Split a switch path into maximal legal up*/down* sub-paths.

    Returns the list of sub-paths; consecutive sub-paths share their
    boundary switch (the in-transit switch).  A legal input path comes
    back as a single segment.
    """
    cuts = _cut_indices(path, g.path_links(path), ud.up_end)
    return [tuple(path[s:e + 1]) for s, e in _segments(cuts, len(path) - 1)]


def _route_builder(g: NetworkGraph) -> Callable[[Tuple[Record, ...]],
                                                Tuple[SourceRoute, ...]]:
    """The function that builds one pair's alternatives on its first
    lookup, keeping one :class:`RouteLeg` per distinct leg for the whole
    table.

    Legs are slices of a record's ``(path, link_ids)`` pair, so the
    graph is never probed again.  Many pairs reuse the same legs (on
    the 8x8 torus ``itb`` table, 39 352 legs are 9 027 distinct ones),
    so a leg already built is handed out again, with the ``dir_hops``
    it stashed.  A leg is known by its first switch and its link ids:
    the links fix every later switch, and keep parallel cables apart.
    """
    known: List[Dict[Tuple[int, ...], RouteLeg]] = [
        {} for _ in range(g.num_switches)]

    def leg(path: Tuple[int, ...], lids: Tuple[int, ...],
            s: int, e: int) -> RouteLeg:
        links = lids[s:e]
        by_links = known[path[s]]
        out = by_links.get(links)
        if out is None:
            out = by_links[links] = RouteLeg(path[s:e + 1], links)
        return out

    def alternatives(records: Tuple[Record, ...]
                     ) -> Tuple[SourceRoute, ...]:
        routes = []
        for path, lids, cuts, hosts in records:
            if not cuts:  # already legal -- the common case
                only = leg(path, lids, 0, len(lids))
                route = SourceRoute((only,))
                route._link_ids = only.links   # the leg's own tuple
            else:
                route = SourceRoute(
                    tuple([leg(path, lids, s, e)
                           for s, e in _segments(cuts, len(lids))]), hosts)
            routes.append(route)
        return tuple(routes)

    return alternatives


def _balance_first_alternatives(g: NetworkGraph,
                                records: Dict[Pair, Tuple[Record, ...]]
                                ) -> None:
    """Reorder each pair's alternatives so the *first* one balances load.

    The SP policy always uses a pair's first table entry.  Plain
    enumeration order is lexicographic, which funnels all SP traffic
    through low-id switches and collapses well before the paper's
    reported ITB-SP throughput.  This pass mimics what ``simple_routes``
    does for the up*/down* baseline: walk the pairs in a deterministic
    interleaved order, promote the alternative with the lowest
    accumulated link weight (ties: fewest in-transit hosts, then
    earliest) to the front, and charge one weight unit to its links.
    RR behaviour is unaffected (it cycles the whole set).
    """
    weight = [0] * g.num_links
    cost = weight.__getitem__
    n = g.num_switches
    pairs = sorted((p for p in records if p[0] != p[1]),
                   key=lambda p: ((p[0] + p[1]) % n, p[0], p[1]))
    for pair in pairs:
        alts = records[pair]
        if len(alts) > 1:
            # the first strict minimum of (weight, in-transit hosts)
            best = 0
            low = sum(map(cost, alts[0][1]))
            few = len(alts[0][3])
            for k in range(1, len(alts)):
                _path, lids, _cuts, hosts = alts[k]
                w = sum(map(cost, lids))
                if w < low or (w == low and len(hosts) < few):
                    best, low, few = k, w, len(hosts)
            if best:
                alts = (alts[best],) + alts[:best] + alts[best + 1:]
                records[pair] = alts
        for lid in alts[0][1]:
            weight[lid] += 1


def assemble_itb_routes(g: NetworkGraph,
                        candidates: Iterable[Tuple[Pair, Sequence[Candidate]]],
                        sort_by_itbs: bool = False,
                        balance_sp: bool = True) -> RouteMap:
    """Join every candidate path's legal legs at in-transit hosts; the
    table keeps the pairs in the order ``candidates`` lists them.

    ``candidates`` yields ``(pair, [(path, link_ids, cut_indices),
    ...])``, a pair's paths in its preference order with the switch
    indices its producer cuts them at (:func:`_cut_indices`; a self
    pair lists ``((s,), (), ())``).  In-transit hosts are taken
    round-robin over each switch's hosts, in exactly that order, so the
    same candidates always get the same hosts and ITB duty is spread
    over all NICs of a switch (the paper only requires "a host
    connected to the intermediate switch").  ``sort_by_itbs`` reorders
    a pair's alternatives fewest-ITBs-first (stable, ties by path);
    ``balance_sp`` then promotes a load-balancing first alternative.
    """
    hosts_at = [g.hosts_at(s) for s in g.switches()]
    turn = [0] * g.num_switches     # each switch's next in-transit host
    records: Dict[Pair, Tuple[Record, ...]] = {}
    # equal in-transit host tuples are one object, like equal legs
    host_tuples: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for pair, paths in candidates:
        alts: List[Record] = []
        for path, lids, cuts in paths:
            if not cuts:
                alts.append((path, lids, cuts, ()))
                continue
            hosts = []
            for i in cuts:
                s = path[i]
                at = hosts_at[s]
                if not at:
                    raise ValueError(f"switch {s} has no host to act as "
                                     f"in-transit buffer")
                k = turn[s]
                hosts.append(at[k])
                turn[s] = (k + 1) % len(at)
            hosts = tuple(hosts)
            alts.append((path, lids, cuts,
                         host_tuples.setdefault(hosts, hosts)))
        if sort_by_itbs:
            alts.sort(key=lambda r: (len(r[3]), r[0]))
        records[pair] = tuple(alts)
    if balance_sp:
        _balance_first_alternatives(g, records)
    return RouteMap(records, _route_builder(g))


def build_itb_routes(g: NetworkGraph, ud: UpDownOrientation,
                     max_routes_per_pair: int = 10,
                     sort_by_itbs: bool = False,
                     balance_sp: bool = True,
                     ) -> RouteMap:
    """Minimal ITB routes for every ordered switch pair.

    Alternatives per pair are the (capped) minimal paths, each split into
    legal legs.  By default they stay in deterministic enumeration order,
    which matches the paper's behaviour: its SP policy "always chooses the
    same minimal path" without optimising the number of in-transit hops
    (the paper reports 0.43 ITBs/message for SP; enumeration order gives
    0.36 on the 8x8 torus, while picking the fewest-ITB alternative --
    ``sort_by_itbs=True``, studied in ``tests/test_itb.py`` -- gives 0.22).
    """
    def candidates():
        # (hops, cuts counted from the end) -> cut indices, one tuple each
        as_indices: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
        for dst in g.switches():
            # one BFS, one DAG and one enumeration pass per destination,
            # shared by every source (the pass lists dst's own entry);
            # the pass carries each path's cuts, counted from dst
            to_dst = minimal_path_links_to(
                g, dst, g.shortest_distances(dst), max_routes_per_pair,
                ud.up_end)
            for src in g.switches():
                paths = []
                for path, lids, cuts, _down in to_dst.get(src, ()):
                    if cuts:
                        key = (len(lids), cuts)
                        cuts = as_indices.get(key)
                        if cuts is None:
                            cuts = as_indices[key] = tuple(
                                [key[0] - r for r in key[1]])
                    paths.append((path, lids, cuts))
                yield (src, dst), paths

    return assemble_itb_routes(g, candidates(), sort_by_itbs, balance_sp)
