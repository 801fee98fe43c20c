"""Routing tables: per-pair route alternatives for a whole network.

Myrinet NICs hold a routing table with one or more entries per
destination (Section 4.5); the paper caps alternatives at 10.  We compute
tables at switch granularity -- all hosts attached to a switch share its
switch-level paths -- and let the NIC layer add the host cables.

Nothing in this module is scheme-specific, and that includes deadlock
freedom: :meth:`RoutingTables.validate` does not ask which scheme built
a table or what recipe its legs follow, it checks the property itself.
A wormhole packet holds the channel it crossed while it waits for the
next one, so consecutive hops of a leg are a *dependency* between two
directed channels; an in-transit host takes the whole packet off the
network, so a leg boundary is where a dependency chain ends (the
paper's argument, Section 3).  The table cannot deadlock iff the graph
of those dependencies has no cycle, and :func:`find_cycle` -- the one
cycle search in ``src/``, shared with the runtime stall diagnosis in
:mod:`repro.sim.invariants` -- decides that.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..topology.graph import NetworkGraph
from .routes import SourceRoute, hop_ints, make_route
from .updown import UpDownOrientation

Pair = Tuple[int, int]


class RouteStore:
    """Pair -> route alternatives in store form: the one table every
    engine reads (:mod:`repro.routing.routes` describes the form).

    Pair ``(src, dst)`` lives at key ``k = src * n + dst`` of the flat
    list :attr:`alts`; the engines index it directly and call
    :meth:`lookup` on a ``None`` slot.  A builder may hand over one
    *record* per pair instead, with the function that turns a record
    into the pair's alternatives: a pair is then built on its first
    lookup and its record dropped, so a run that sends on a tenth of
    the pairs builds a tenth of the routes, and once every pair is
    built the records and the builder go.

    Readers see a read-only mapping keyed by pair, in build order:
    ``len``, ``in``, iteration, ``keys`` and ``get`` cover every pair
    without building any; ``values`` / ``items`` / ``==`` build what
    they return.  An unknown pair raises :class:`KeyError`.
    """

    __slots__ = ("n", "alts", "_order", "_records", "_build", "_pending")

    def __init__(self, n: int, order: Sequence[int],
                 alts: Optional[List[Optional[tuple]]] = None,
                 records: Optional[List[Any]] = None,
                 build: Optional[Callable[[Any], tuple]] = None) -> None:
        self.n = n
        #: key -> the pair's alternatives, ``None`` until built
        self.alts: List[Optional[tuple]] = (
            alts if alts is not None else [None] * (n * n))
        self._order = order
        self._records = records
        self._build = build
        self._pending = (0 if records is None else
                         sum(r is not None for r in records))
        if not self._pending:
            self._records = self._build = None

    @classmethod
    def from_mapping(cls, n: int, routes: Mapping[Pair, Sequence[Any]]
                     ) -> "RouteStore":
        """A store holding ``routes``: alternatives in store form or as
        :class:`SourceRoute` values (a hand-written table)."""
        alts: List[Optional[tuple]] = [None] * (n * n)
        order = array("i")
        for (src, dst), pair_alts in routes.items():
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"pair ({src}, {dst}) outside a "
                                 f"{n}-switch table")
            k = src * n + dst
            alts[k] = tuple(r.to_store() if isinstance(r, SourceRoute)
                            else r for r in pair_alts)
            order.append(k)
        return cls(n, order, alts)

    def lookup(self, k: int) -> tuple:
        """The alternatives at key ``k``, built on its first lookup;
        :class:`KeyError` for a pair the table does not hold."""
        alts = self.alts[k]
        if alts is not None:
            return alts
        records = self._records
        record = None if records is None else records[k]
        if record is None:
            raise KeyError(divmod(k, self.n))
        alts = self.alts[k] = self._build(record)
        records[k] = None
        self._pending -= 1
        if not self._pending:
            self._records = self._build = None
        return alts

    def _key(self, pair: Pair) -> int:
        src, dst = pair
        n = self.n
        if 0 <= src < n and 0 <= dst < n:
            return src * n + dst
        raise KeyError(pair)

    def __getitem__(self, pair: Pair) -> tuple:
        return self.lookup(self._key(pair))

    def __contains__(self, pair: object) -> bool:
        try:
            k = self._key(pair)             # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return False
        return (self.alts[k] is not None or (self._records is not None
                                             and self._records[k] is not None))

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Pair]:
        n = self.n
        return (divmod(k, n) for k in self._order)

    def keys(self) -> List[Pair]:
        return list(self)

    def get(self, pair: Pair, default: Any = None) -> Any:
        return self[pair] if pair in self else default

    def values(self) -> List[tuple]:
        return [self.lookup(k) for k in self._order]

    def items(self) -> List[Tuple[Pair, tuple]]:
        n = self.n
        return [(divmod(k, n), self.lookup(k)) for k in self._order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RouteStore, dict)):
            return NotImplemented
        return dict(self.items()) == dict(other.items())


def interleaved_pairs(n: int) -> Iterator[int]:
    """Keys ``src * n + dst`` of every pair of distinct switches, by
    ``((src + dst) % n, src)``: the order the balancing passes charge
    link weights in.  Interleaving by destination (rather than
    iterating all destinations of switch 0 first) avoids
    systematically biasing early, low-weight picks toward low-id
    sources."""
    for r in range(n):
        for src in range(n):
            dst = (r - src) % n
            if dst != src:
                yield src * n + dst


def find_cycle(successors: Mapping[int, Iterable[int]]
               ) -> Optional[List[int]]:
    """A cycle of the directed graph ``successors``, or ``None``.

    ``successors`` maps a node to the nodes it points at (a node that
    is only ever pointed at needs no entry).  The search is a
    depth-first colour walk -- nodes on the current branch are active,
    an edge back into the branch closes a cycle -- kept iterative so a
    dependency chain as long as the fabric is wide cannot hit the
    recursion limit.  The cycle is returned as its node list rotated
    to start from the smallest node, so the same cycle always renders
    identically.
    """
    done: Set[int] = set()
    for start in successors:
        if start in done:
            continue
        branch: List[int] = [start]
        active: Dict[int, int] = {start: 0}       # node -> index in branch
        pending: List[Iterator[int]] = [iter(successors[start])]
        while pending:
            for nxt in pending[-1]:
                if nxt in active:
                    cycle = branch[active[nxt]:]
                    i = cycle.index(min(cycle))
                    return cycle[i:] + cycle[:i]
                if nxt not in done:
                    active[nxt] = len(branch)
                    branch.append(nxt)
                    pending.append(iter(successors.get(nxt, ())))
                    break
            else:
                pending.pop()
                finished = branch.pop()
                del active[finished]
                done.add(finished)
    return None


@dataclass(frozen=True)
class RoutingTables:
    """All routes of one network under one scheme.

    ``routes`` is the :class:`RouteStore` the engines read.  Any other
    mapping handed in -- a hand-written ``{pair: (SourceRoute, ...)}``
    table, or a copy of another table's routes -- is normalised into
    one, so every table reaches the engines in the same form.
    """

    scheme: str
    root: int
    orientation: UpDownOrientation
    routes: RouteStore

    def __post_init__(self) -> None:
        if not isinstance(self.routes, RouteStore):
            n = len(self.orientation.tree.level)
            object.__setattr__(self, "routes",
                               RouteStore.from_mapping(n, self.routes))

    def alternatives(self, src_switch: int, dst_switch: int) -> tuple:
        """Route alternatives (store form) for an ordered switch pair."""
        return self.routes[(src_switch, dst_switch)]

    def source_routes(self, g: NetworkGraph, src_switch: int,
                      dst_switch: int) -> Tuple[SourceRoute, ...]:
        """The pair's alternatives as switch-level :class:`SourceRoute`
        views (built on each call; nothing keeps them)."""
        return tuple(SourceRoute.from_store(g, src_switch, r)
                     for r in self.routes[(src_switch, dst_switch)])

    def max_alternatives(self) -> int:
        return max(len(alts) for alts in self.routes.values())

    def with_remapped_links(self, link_map: Mapping[int, int]
                            ) -> "RoutingTables":
        """Tables identical to these but with every link id translated
        through ``link_map``.

        Online reconfiguration computes tables on a mutated copy of
        the graph whose surviving cables were renumbered
        (:func:`repro.topology.mutate.without_links_mapped` reports the
        old->new mapping); before a running engine built on the
        *original* graph can use them, link ids must be translated
        back.  Switch and host ids are preserved by the mutation, so
        only the hops' link ids (a hop's direction bit compares the
        same two switches) and the orientation's per-link "up" ends
        change.  Ids absent from the map (the dead cables, in the
        reconfiguration case) get an impossible up end of ``-1`` -- no
        remapped route crosses them, so legality checks never consult
        those slots.  Raises :class:`KeyError` when a route crosses a
        link the map does not cover.
        """
        ints = hop_ints(max(link_map.values()) + 1 if link_map else 0)
        leg_cache: Dict[tuple, tuple] = {}

        def remap(leg: tuple) -> tuple:
            out = leg_cache.get(leg)
            if out is None:
                out = leg_cache[leg] = tuple([
                    ints[link_map[h >> 1] << 1 | (h & 1)] for h in leg])
            return out

        store = self.routes
        alts: List[Optional[tuple]] = [None] * len(store.alts)
        for k in store._order:
            alts[k] = tuple(make_route(list(map(remap, r[2:])), r[1])
                            for r in store.lookup(k))
        up_end = [-1] * (max(link_map.values()) + 1 if link_map else 0)
        for cur, out in link_map.items():
            up_end[out] = self.orientation.up_end[cur]
        orientation = UpDownOrientation(self.orientation.tree,
                                        tuple(up_end))
        return RoutingTables(self.scheme, self.root, orientation,
                             RouteStore(store.n, store._order, alts))

    def channel_dependencies(self, g: NetworkGraph) -> Dict[int, List[int]]:
        """The channel-dependency graph of these tables.

        Nodes are directed channels, as the hop numbers the legs are
        made of (``link_id << 1 | dir``, :func:`~repro.routing.routes
        .hop`); an edge ``a -> b`` means some leg crosses ``b`` right
        after ``a``, i.e. a packet may hold ``a`` while it waits for
        ``b``.  Legs are the unit: ejection at an in-transit host ends
        a leg and with it the chain.  Successor lists are sorted so the
        graph (and any cycle found in it) does not depend on the order
        routes were built in.  The hops are graph-level facts, so ``g``
        is not consulted.
        """
        del g
        deps: Dict[int, Set[int]] = {}
        seen: Set[int] = set()
        for alts in self.routes.values():
            for route in alts:
                for leg in route[2:]:
                    if id(leg) in seen:     # interned: shared legs once
                        continue
                    seen.add(id(leg))
                    for held, wanted in zip(leg, leg[1:]):
                        deps.setdefault(held, set()).add(wanted)
        return {held: sorted(deps[held]) for held in sorted(deps)}

    def dependency_cycle(self, g: NetworkGraph) -> Optional[List[int]]:
        """Channels of a cyclic dependency -- a set of packets that can
        each hold one and wait for the next forever -- or ``None`` when
        the tables are deadlock-free."""
        return find_cycle(self.channel_dependencies(g))

    def validate(self, g: NetworkGraph) -> None:
        """Check structural soundness of every route and deadlock
        freedom of the table as a whole; the first violation raises
        :class:`AssertionError` (an explicit raise, so ``python -O``
        checks too).

        Structural checks, walking each route's hops from the pair's
        source switch: every hop's link leaves the switch the route has
        reached, in the direction its bit says (builders carry hops
        instead of re-probing the graph, so this is what guards them),
        in-transit hosts sit on the leg-boundary switches, and the walk
        ends at the pair's destination.  Then the one
        scheme-independent property: the channel-dependency graph of
        the legs is acyclic (:meth:`dependency_cycle`); a failure names
        the cycle hop by hop.
        """
        links = g.links
        num_links = len(links)
        host_switch = [h.switch for h in g.hosts]
        for (src, dst), alts in self.routes.items():
            if not alts:
                raise AssertionError(f"no route for pair ({src}, {dst})")
            for route in alts:
                hosts = route[1]
                if len(hosts) != len(route) - 3:
                    raise AssertionError(
                        f"{len(route) - 2} legs need {len(route) - 3} "
                        f"in-transit hosts in route {src}->{dst}, got "
                        f"{len(hosts)}")
                at = src
                for i, leg in enumerate(route[2:]):
                    if i and not (0 <= hosts[i - 1] < len(host_switch)
                                  and host_switch[hosts[i - 1]] == at):
                        raise AssertionError(
                            f"in-transit host {hosts[i - 1]} not at "
                            f"boundary switch of route {src}->{dst}")
                    for h in leg:
                        lid = h >> 1
                        link = links[lid] if lid < num_links else None
                        if link is None or at not in (link.a, link.b):
                            raise AssertionError(
                                f"link {lid} does not join switch {at} "
                                f"to the next switch of route "
                                f"{src}->{dst}")
                        frm, to = ((link.b, link.a) if h & 1
                                   else (link.a, link.b))
                        if frm != at:
                            raise AssertionError(
                                f"hop {h} crosses link {lid} toward "
                                f"switch {at} in route {src}->{dst}")
                        at = to
                if at != dst:
                    raise AssertionError(
                        f"route {src}->{dst} ends at switch {at}")
        cycle = self.dependency_cycle(g)
        if cycle is not None:
            raise AssertionError(
                f"{self.scheme!r} tables can deadlock: channel dependency "
                f"cycle " + ", ".join(_channel_name(g, c) for c in cycle))


def _channel_name(g: NetworkGraph, channel: int) -> str:
    """``src->dst (link id)`` of a directed-channel index."""
    link = g.links[channel >> 1]
    a, b = (link.b, link.a) if channel & 1 else (link.a, link.b)
    return f"{a}->{b} (link {link.id})"
