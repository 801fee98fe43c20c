"""Angara-style optimized up*/down* routing (arXiv 2110.00851).

The Angara interconnect runs graph-based up*/down* routing and gets a
measurable throughput win over the textbook construction from two
heuristics that slot straight into our spanning-tree build:

1. **Root selection.**  The BFS root is not "switch 0" but a switch of
   minimum *eccentricity* (a graph centre), with ties broken toward the
   highest degree and then the lowest id.  A central root halves the
   worst-case up-phase length and spreads tree levels evenly, so fewer
   pairs are forced through long up*/down* detours.

2. **Path ordering.**  Links between same-level switches get their "up"
   end from a congestion-aware total order -- higher-degree switches
   rank *higher* (closer to the root) -- instead of the arbitrary
   lower-id rule.  Well-connected switches can fan traffic out over
   many down-links, so pointing horizontal links at them relieves the
   poorly-connected ones that would otherwise concentrate turns.

Both heuristics only change which orientation is derived; the route
enumeration, balancing and legality machinery is the shared up*/down*
stack, so every route is one legal up*/down* leg under the derived
orientation -- deadlock-free by the same argument as the baseline.

Registered as ``"updown-opt"``.  The ``root`` argument of the builder
is a *hint* that the eccentricity heuristic overrides; tables stay
deterministic for a fixed (graph, scheme, root) because the selection
itself is deterministic.
"""

from __future__ import annotations

from typing import List, Tuple

from ..topology.graph import NetworkGraph
from .schemes import SCHEMES, Scheme
from .simple_routes import simple_route_table
from .spanning_tree import SpanningTree, build_spanning_tree
from .table import RoutingTables
from .updown import UpDownOrientation


def select_root(g: NetworkGraph) -> int:
    """A graph centre: minimum eccentricity, then maximum degree, then
    lowest id -- all deterministic functions of the graph."""
    best = 0
    best_key: Tuple[int, int, int] = (g.num_switches + 1, 0, 0)
    for s in g.switches():
        ecc = max(g.shortest_distances(s))
        key = (ecc, -g.degree(s), s)
        if key < best_key:
            best_key = key
            best = s
    return best


def orient_links_ordered(g: NetworkGraph,
                         tree: SpanningTree) -> UpDownOrientation:
    """Orientation with the degree-aware same-level order.

    Different-level links keep the Autonet rule (up end toward the
    root); same-level links point "up" at the endpoint ranking higher
    under ``(-degree, id)``.  The relation is a strict total order on
    switches, so up-links still form a DAG ordered by
    ``(level, -degree, id)`` and the deadlock-freedom argument is
    unchanged.
    """
    level = tree.level
    up_end: List[int] = []
    for link in g.links:
        la, lb = level[link.a], level[link.b]
        if la != lb:
            up_end.append(link.a if la < lb else link.b)
        else:
            ka = (-g.degree(link.a), link.a)
            kb = (-g.degree(link.b), link.b)
            up_end.append(link.a if ka < kb else link.b)
    return UpDownOrientation(tree, tuple(up_end))


def build_updown_opt_tables(g: NetworkGraph, root: int = 0,
                            max_routes_per_pair: int = 10) -> RoutingTables:
    """Optimized up*/down* tables: centre root + ordered orientation.

    Route selection is the same weight-balanced ``simple_routes`` pass
    as the baseline, run on the better orientation; one route per pair.
    """
    del root, max_routes_per_pair  # root is heuristic-chosen
    centre = select_root(g)
    tree = build_spanning_tree(g, centre)
    ud = orient_links_ordered(g, tree)
    return RoutingTables("updown-opt", centre, ud, simple_route_table(g, ud))


SCHEMES.register(Scheme(
    name="updown-opt",
    description="Angara-style optimized up*/down*: eccentricity-centred "
                "root + degree-ordered orientation (arXiv 2110.00851)",
    label=lambda policy: "UD-OPT",
    build=build_updown_opt_tables,
    multipath=False,
))
