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

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from ..topology.graph import NetworkGraph
from .routes import RouteLeg, SourceRoute
from .updown import UpDownOrientation

Pair = Tuple[int, int]


class RouteMap(dict):
    """Pair -> route alternatives, each pair's built on first lookup.

    A builder hands over one *record* per pair, in build order, and the
    function that turns a record into the pair's alternatives.  The
    ``dict`` storage starts empty: a lookup of a pair not yet stored
    lands in :meth:`__missing__`, which builds, stores and returns it,
    so every later hit is the plain C-level ``dict`` lookup the engines'
    hot paths make.  A run that sends on a tenth of the pairs builds a
    tenth of the ``SourceRoute`` objects.

    The laziness is invisible to readers: ``len``, ``in``, iteration,
    ``keys`` and ``get`` cover every pair in build order, ``values`` /
    ``items`` / ``==`` build what they return, and ``dict(m)`` copies
    every pair.  An unknown pair raises :class:`KeyError`.  It is a
    read-only mapping: nothing mutates a built table.
    """

    __slots__ = ("_records", "_build")

    def __init__(self, records: Dict[Pair, Any],
                 build: Callable[[Any], Tuple[SourceRoute, ...]]) -> None:
        super().__init__()
        self._records = records
        self._build = build

    def __missing__(self, pair: Pair) -> Tuple[SourceRoute, ...]:
        records = self._records
        alts = self._build(records[pair])    # KeyError for an unknown pair
        dict.__setitem__(self, pair, alts)
        records[pair] = None                 # built once; the key stays
        return alts

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._records)

    def __contains__(self, pair: object) -> bool:
        return pair in self._records

    def keys(self):
        return self._records.keys()

    def get(self, pair: Pair, default: Any = None) -> Any:
        return self[pair] if pair in self._records else default

    def values(self) -> List[Tuple[SourceRoute, ...]]:
        return [self[pair] for pair in self._records]

    def items(self) -> List[Tuple[Pair, Tuple[SourceRoute, ...]]]:
        return [(pair, self[pair]) for pair in self._records]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, dict):
            return NotImplemented
        return dict(self.items()) == dict(other.items())

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


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

    ``routes`` is a plain ``dict`` or a :class:`RouteMap` (the ITB
    recipe's tables, which build a pair's routes on its first lookup);
    readers cannot tell them apart.
    """

    scheme: str
    root: int
    orientation: UpDownOrientation
    routes: Dict[Tuple[int, int], Tuple[SourceRoute, ...]]

    def alternatives(self, src_switch: int, dst_switch: int
                     ) -> Tuple[SourceRoute, ...]:
        """Route alternatives for an ordered switch pair."""
        return self.routes[(src_switch, dst_switch)]

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
        only ``links`` tuples and the orientation's per-link "up" ends
        change.  Ids absent from the map (the dead cables, in the
        reconfiguration case) get an impossible up end of ``-1`` -- no
        remapped route crosses them, so legality checks never consult
        those slots.  Raises :class:`KeyError` when a route crosses a
        link the map does not cover.
        """
        leg_cache: Dict[RouteLeg, RouteLeg] = {}

        def remap_leg(leg: RouteLeg) -> RouteLeg:
            out = leg_cache.get(leg)
            if out is None:
                out = RouteLeg(leg.switches,
                               tuple(link_map[l] for l in leg.links))
                leg_cache[leg] = out
            return out

        routes = {
            pair: tuple(SourceRoute(tuple(remap_leg(leg)
                                          for leg in r.legs),
                                    r.itb_hosts)
                        for r in alts)
            for pair, alts in self.routes.items()}
        up_end = [-1] * (max(link_map.values()) + 1 if link_map else 0)
        for cur, out in link_map.items():
            up_end[out] = self.orientation.up_end[cur]
        orientation = UpDownOrientation(self.orientation.tree,
                                        tuple(up_end))
        return RoutingTables(self.scheme, self.root, orientation, routes)

    def channel_dependencies(self, g: NetworkGraph) -> Dict[int, List[int]]:
        """The channel-dependency graph of these tables.

        Nodes are directed channels, as the ``link_id << 1 | dir``
        indices of :meth:`RouteLeg.dir_hops`; an edge ``a -> b`` means
        some leg crosses ``b`` right after ``a``, i.e. a packet may hold
        ``a`` while it waits for ``b``.  Legs are the unit: ejection at
        an in-transit host ends a leg and with it the chain.  Successor
        lists are sorted so the graph (and any cycle found in it) does
        not depend on the order routes were built in.
        """
        deps: Dict[int, Set[int]] = {}
        for alts in self.routes.values():
            for route in alts:
                for leg in route.legs:
                    hops = leg.dir_hops(g)
                    for held, wanted in zip(hops, hops[1:]):
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

        Structural checks: endpoints match the pair key, every hop's
        link id names the cable that joins its two switches (builders
        carry link ids instead of re-probing the graph, so this is what
        guards them), in-transit hosts sit on the leg-boundary
        switches.  Then the one scheme-independent property: the
        channel-dependency graph of the legs is acyclic
        (:meth:`dependency_cycle`); a failure names the cycle hop by
        hop.
        """
        ends = [link.endpoints() for link in g.links]   # (lo, hi) per id
        for (src, dst), alts in self.routes.items():
            if not alts:
                raise AssertionError(f"no route for pair ({src}, {dst})")
            for route in alts:
                if route.src != src or route.dst != dst:
                    raise AssertionError(
                        f"route endpoints {route.src}->{route.dst} do not "
                        f"match pair ({src}, {dst})")
                for leg in route.legs:
                    hops = zip(leg.links, leg.switches, leg.switches[1:])
                    for lid, a, b in hops:
                        if not (0 <= lid < len(ends) and ends[lid]
                                == ((a, b) if a < b else (b, a))):
                            raise AssertionError(
                                f"link {lid} does not join switches {a} "
                                f"and {b} in route {src}->{dst}")
                for host, (prev, nxt) in zip(route.itb_hosts,
                                             zip(route.legs, route.legs[1:])):
                    if not g.host_switch(host) == prev.end == nxt.start:
                        raise AssertionError(
                            f"in-transit host {host} not at boundary "
                            f"switch of route {src}->{dst}")
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
