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
``(hops, cut_indices)`` pairs into a table; :func:`build_itb_routes`
(the paper's scheme) and :mod:`repro.routing.outflank` differ only in
the candidates they feed it.  :func:`build_itb_routes` lists them per
destination, not per pair: one BFS gives the shortest-path DAG toward
the destination and one pass over it
(:func:`repro.routing.minimal.minimal_hops_to`) lists every source's
capped minimal paths as the directed hops they cross, together with
where they must be cut, carried along the walk instead of found by
rescanning each path (:func:`_cut_indices`, which outflank's candidates
and :func:`split_path_at_violations` still use).

The assembler does eagerly what needs the whole table: every
alternative's in-transit hosts (cycled through the hosts of each
switch in one global order, so the ITB workload is spread over all NICs
attached to it), the optional fewest-ITBs-first order and the balancing
of first alternatives.  What it keeps of a pair is the record
(:data:`Record`) those passes worked on: the candidates' hop tuples,
their cuts and their hosts.  The store-form routes -- slices of those
hops -- are built on the pair's first lookup
(:class:`repro.routing.table.RouteStore`): a run builds the routes it
sends on, and a leg that many pairs share is one tuple.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..topology.graph import NetworkGraph
from .minimal import minimal_hops_to
from .routes import Leg, hop_ints, make_route
from .table import Pair, RouteStore, interleaved_pairs
from .updown import UpDownOrientation

#: one pair's candidates as their producer hands them to the assembler:
#: ``(pair, paths, cuts)``, each path the tuple of its directed hops and
#: ``cuts[i]`` where path ``i`` is cut, as the hops still to go at each
#: cut switch (descending; a path of ``n`` hops cut at ``r`` ejects at
#: its switch index ``n - r``)
Candidates = Tuple[Pair, Sequence[Tuple[int, ...]],
                   Sequence[Tuple[int, ...]]]
#: one pair's alternatives as the assembler keeps them until first
#: lookup: ``(paths, cuts, itb_hosts)`` -- alternative ``i`` crosses the
#: hops ``paths[i]``, is cut at ``cuts[i]`` (counted from the end, as in
#: :data:`Candidates`) and joined at the hosts ``itb_hosts[i]``
Record = Tuple[Sequence[Tuple[int, ...]], Sequence[Tuple[int, ...]],
               Sequence[Tuple[int, ...]]]


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


def _route_builder(g: NetworkGraph) -> Callable[[Record], tuple]:
    """The function that builds one pair's store-form alternatives on
    its first lookup, keeping one tuple per distinct leg for the whole
    table.

    Legs are slices of a record's hops.  Many pairs reuse the same legs
    (on the 8x8 torus ``itb`` table, 39 352 legs are 8 964 distinct
    ones), so a leg already built is handed out again: its hops name
    it, since a link and a direction fix both switches.  A new leg
    takes the graph's shared hop ints
    (:func:`~repro.routing.routes.hop_ints`).
    """
    get = hop_ints(g.num_links).__getitem__
    known: Dict[Leg, Leg] = {}

    def intern(leg: Leg) -> Leg:
        out = known.get(leg)
        if out is None:
            out = known[leg] = tuple(map(get, leg))
        return out

    def alternatives(record: Record) -> tuple:
        routes = []
        for path, cut, itb in zip(*record):
            if not cut:  # already legal -- the common case
                routes.append(make_route((intern(path),)))
            else:
                ends = [len(path) - r for r in cut]
                routes.append(make_route(
                    [intern(path[s:e])
                     for s, e in zip([0, *ends], [*ends, len(path)])],
                    itb))
        return tuple(routes)

    return alternatives


def _balance_first_alternatives(g: NetworkGraph, pending: List) -> None:
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

    ``pending[k]`` is a pair's :data:`Record`.  Weights
    are kept per directed hop, both directions charged, so the sum over
    a path's hops is its link weight.
    """
    weight = [0] * (2 * g.num_links)
    cost = weight.__getitem__
    for k in interleaved_pairs(g.num_switches):
        entry = pending[k]
        if entry is None:
            continue
        paths, cuts, itb_hosts = entry
        if len(paths) > 1:
            # the first strict minimum of (weight, in-transit hosts)
            best = 0
            low = sum(map(cost, paths[0]))
            few = len(itb_hosts[0])
            for i in range(1, len(paths)):
                w = sum(map(cost, paths[i]))
                if w < low or (w == low and len(itb_hosts[i]) < few):
                    best, low, few = i, w, len(itb_hosts[i])
            if best:
                pending[k] = entry = tuple(
                    (t[best], *t[:best], *t[best + 1:])
                    for t in (paths, cuts, itb_hosts))
        for h in entry[0][0]:
            weight[h] += 1
            weight[h ^ 1] += 1


def assemble_itb_routes(g: NetworkGraph, candidates: Iterable[Candidates],
                        sort_by_itbs: bool = False,
                        balance_sp: bool = True) -> RouteStore:
    """Join every candidate path's legal legs at in-transit hosts; the
    table keeps the pairs in the order ``candidates`` lists them.

    ``candidates`` yields ``(pair, paths, cuts)`` (:data:`Candidates`):
    a pair's paths as directed hops in its preference order, and where
    its producer cuts each (:func:`_cut_indices`, counted from the end;
    a self pair lists the path ``()``).  In-transit hosts are taken
    round-robin over each switch's hosts, in exactly that order, so the
    same candidates always get the same hosts and ITB duty is spread
    over all NICs of a switch (the paper only requires "a host
    connected to the intermediate switch").  ``sort_by_itbs`` reorders
    a pair's alternatives fewest-ITBs-first (stable, so ties keep the
    producer's order, ascending by switch path for the minimal
    producer); ``balance_sp`` then promotes a load-balancing first
    alternative.  A pair keeps its :data:`Record` until its first
    lookup.
    """
    n = g.num_switches
    hosts_at = [g.hosts_at(s) for s in g.switches()]
    turn = [0] * n                  # each switch's next in-transit host
    # the switch hop h leaves: a link's hop 0 leaves its lower end
    leaves = [s for link in g.links for s in (link.a, link.b)]
    records: List[Optional[Record]] = [None] * (n * n)
    order = array("i")
    # equal no-host tuples are one object
    shared: Dict[tuple, tuple] = {}
    for (src, dst), paths, cuts in candidates:
        if any(cuts):
            itb_hosts = []
            for path, cut in zip(paths, cuts):
                itb = []
                for r in cut:
                    s = leaves[path[len(path) - r]]
                    at = hosts_at[s]
                    if not at:
                        raise ValueError(f"switch {s} has no host to act "
                                         f"as in-transit buffer")
                    j = turn[s]
                    itb.append(at[j])
                    turn[s] = (j + 1) % len(at)
                itb_hosts.append(tuple(itb))
            if sort_by_itbs:
                by_itbs = sorted(range(len(paths)),
                                 key=lambda i: len(itb_hosts[i]))
                paths = [paths[i] for i in by_itbs]
                cuts = [cuts[i] for i in by_itbs]
                itb_hosts = [itb_hosts[i] for i in by_itbs]
            itb_hosts = tuple(itb_hosts)
            cuts = tuple(cuts)
        else:           # no cut, no host: both are k empty tuples
            itb_hosts = ((),) * len(paths)
            itb_hosts = cuts = shared.setdefault(itb_hosts, itb_hosts)
        k = src * n + dst
        records[k] = (paths, cuts, itb_hosts)
        order.append(k)
    if balance_sp:
        _balance_first_alternatives(g, records)
    return RouteStore(n, order, records=records, build=_route_builder(g))


def build_itb_routes(g: NetworkGraph, ud: UpDownOrientation,
                     max_routes_per_pair: int = 10,
                     sort_by_itbs: bool = False,
                     balance_sp: bool = True,
                     ) -> RouteStore:
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
        hops, fresh = itemgetter(0), itemgetter(1)
        for dst in g.switches():
            # one BFS, one DAG and one enumeration pass per destination,
            # shared by every source (the pass lists dst's own entry);
            # the pass carries each path's cuts, counted from dst
            to_dst = minimal_hops_to(
                g, dst, g.shortest_distances(dst), max_routes_per_pair,
                ud.up_end)
            for src in g.switches():
                entries = to_dst.get(src, ())
                yield ((src, dst), list(map(hops, entries)),
                       list(map(fresh, entries)))

    return assemble_itb_routes(g, candidates(), sort_by_itbs, balance_sp)
