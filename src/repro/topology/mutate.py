"""Topology mutation: link failures (extension).

Myrinet NICs "check for changes in the network topology (shutdown of
hosts, link/switch failures ...) in order to maintain the routing
tables" (paper Section 2).  These helpers produce the post-failure
topology so the routing stack can recompute tables and the resilience
benches can measure how gracefully each algorithm degrades.

Graphs are immutable once frozen, so mutation means rebuilding.  Link
removal preserves switch/host ids; link ids are positional and
renumber, and :func:`without_links_mapped` returns the old->new map
alongside the graph so tables computed on the survivor can be
translated back onto the original cables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

from .graph import NetworkGraph


@dataclass(frozen=True)
class LinkRemoval:
    """Result of :func:`without_links_mapped`.

    ``link_map`` maps surviving old link ids to their (renumbered) ids
    in ``graph``; removed links are absent.  Switch and host ids are
    preserved, so no maps are needed for them.
    """

    graph: NetworkGraph
    link_map: Dict[int, int]


def without_links_mapped(g: NetworkGraph,
                         link_ids: Iterable[int]) -> LinkRemoval:
    """A copy of ``g`` with the given cables removed, plus the id map.

    Link ids are renumbered (they are positional); switch and host ids
    are preserved.  A failure that would partition the switch graph
    raises :class:`ValueError` -- routing is undefined across a
    partition.
    """
    dead: Set[int] = set(link_ids)
    for lid in dead:
        if not (0 <= lid < g.num_links):
            raise ValueError(f"link {lid} out of range")
    out = NetworkGraph(g.num_switches, g.switch_ports,
                       name=f"{g.name}-minus-{len(dead)}-links")
    link_map: Dict[int, int] = {}
    for link in g.links:
        if link.id not in dead:
            link_map[link.id] = out.add_link(link.a, link.b)
    for host in g.hosts:
        out.add_host(host.switch)
    out.freeze()
    if not out.is_connected():
        raise ValueError(
            f"removing links {sorted(dead)} partitions the network")
    return LinkRemoval(out, link_map)


def without_links(g: NetworkGraph, link_ids: Iterable[int]) -> NetworkGraph:
    """Like :func:`without_links_mapped` but returns just the graph."""
    return without_links_mapped(g, link_ids).graph
