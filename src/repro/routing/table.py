"""Routing tables: per-pair route alternatives for a whole network.

Myrinet NICs hold a routing table with one or more entries per
destination (Section 4.5); the paper caps alternatives at 10.  We compute
tables at switch granularity -- all hosts attached to a switch share its
switch-level paths -- and let the NIC layer add the host cables.

Schemes are pluggable: :func:`compute_tables` dispatches through the
:mod:`repro.routing.schemes` registry, where the paper's two schemes
(``"updown"``, ``"itb"``) and the extension schemes (``"updown-opt"``,
``"outflank"``, ``"dor"``) register their builders and capability
declarations.  Nothing in this module is scheme-specific.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..topology.graph import NetworkGraph
from .routes import RouteLeg, SourceRoute
from .updown import UpDownOrientation


@dataclass(frozen=True)
class RoutingTables:
    """All routes of one network under one scheme."""

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

    def validate(self, g: NetworkGraph) -> None:
        """Assert structural soundness and deadlock-discipline of every
        route.

        Structural checks: endpoints match the pair key, every hop's
        link id names the cable that joins its two switches (builders
        carry link ids instead of re-probing the graph, so this is what
        guards them), in-transit hosts sit on the leg-boundary
        switches.  Legality is then checked under the **discipline the
        scheme declares** in the registry (up*/down* leg legality for
        the paper's schemes, X-then-Y turn order for dimension-order
        routing) -- the deadlock-freedom argument made executable.
        """
        ends = [link.endpoints() for link in g.links]   # (lo, hi) per id
        for (src, dst), alts in self.routes.items():
            assert alts, f"no route for pair ({src}, {dst})"
            for route in alts:
                assert route.src == src and route.dst == dst, (
                    f"route endpoints {route.src}->{route.dst} do not match "
                    f"pair ({src}, {dst})")
                for leg in route.legs:
                    hops = zip(leg.links, leg.switches, leg.switches[1:])
                    for lid, a, b in hops:
                        assert (0 <= lid < len(ends) and ends[lid]
                                == ((a, b) if a < b else (b, a))), (
                            f"link {lid} does not join switches {a} and "
                            f"{b} in route {src}->{dst}")
                for host, (prev, nxt) in zip(route.itb_hosts,
                                             zip(route.legs, route.legs[1:])):
                    assert g.host_switch(host) == prev.end == nxt.start, (
                        f"in-transit host {host} not at boundary switch of "
                        f"route {src}->{dst}")
        # imported lazily: schemes imports RoutingTables from this module
        from .schemes import check_discipline
        check_discipline(self, g)


def compute_tables(g: NetworkGraph, scheme: str, root: int = 0,
                   max_routes_per_pair: int = 10,
                   sort_by_itbs: bool = False) -> RoutingTables:
    """Compute routing tables for ``g`` under the registered ``scheme``.

    This is the entry point used by the experiment runner; results are
    deterministic for a given (graph, scheme, root).  ``sort_by_itbs``
    orders ITB alternatives by in-transit hops before the pass that
    balances the first ones, which already breaks its ties that way, so
    the runner never sets it (the paper's SP does not optimise this;
    ``tests/test_itb.py`` studies it on unbalanced tables).  Unknown
    schemes raise a
    :class:`ValueError` listing the registered ones.
    """
    # imported lazily: schemes imports RoutingTables from this module
    from .schemes import make_tables
    return make_tables(g, scheme, root, max_routes_per_pair, sort_by_itbs)
