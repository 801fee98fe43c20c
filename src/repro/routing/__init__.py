"""Routing algorithms: up*/down* (Myrinet baseline) and in-transit buffers.

The pipeline mirrors Section 2--3 of the paper:

1. :mod:`spanning_tree` computes the BFS spanning tree and assigns an
   "up" direction to every link (Autonet rules).
2. :mod:`updown` provides legality checks and shortest *legal* path
   machinery on the resulting directed-link structure.
3. :mod:`simple_routes` reimplements Myricom's ``simple_routes`` program:
   one weight-balanced valid up*/down* route per switch pair -- this is
   the paper's UP/DOWN baseline.
4. :mod:`minimal` enumerates true minimal paths (up to the 10-alternative
   table cap), per destination; :mod:`reference` keeps the per-pair
   searches the tests compare the per-destination kernels against.
5. :mod:`itb` splits minimal paths that violate the up*/down* rule into
   legal sub-routes joined at in-transit hosts, producing the ITB routes.
6. :mod:`table` holds per-pair route tables (:class:`RouteStore`:
   routes in the directed-hop form of :mod:`routes`, the one spelling
   of a route and the one every engine reads, each pair's built on its
   first lookup);
   :mod:`policies` implements the SP / RR (and extension: random)
   path-selection policies.
7. :mod:`analysis` computes the route-quality statistics quoted in the
   paper (fraction of minimal paths, average distance, ITBs per message).

Schemes are **pluggable**: :mod:`schemes` keeps a registry
(:data:`SCHEMES`, a :class:`repro.registry.Registry`, as is
:data:`POLICIES`) where each scheme declares its builder, its label,
whether it is multipath and which topologies it can route.  Besides
the paper's ``"updown"`` / ``"itb"``, the extension schemes register
here: :mod:`angara` (``"updown-opt"``, optimized root selection + link
ordering), :mod:`outflank` (``"outflank"``, adaptive non-minimal grid
routing) and :mod:`dor` (``"dor"``, dimension-order on meshes).

:func:`compute_tables` is the one entry point (the experiment runner
calls it); it dispatches through the registry.  Whether the tables it
returns can deadlock is not declared by the scheme but checked on the
tables: :meth:`RoutingTables.validate` asserts their channel-dependency
graph is acyclic.
"""

from __future__ import annotations

from .spanning_tree import SpanningTree, build_spanning_tree
from .updown import UpDownOrientation, orient_links
from .simple_routes import compute_simple_routes
from .reference import enumerate_minimal_paths
from .itb import build_itb_routes, split_path_at_violations
from .table import RoutingTables
from .schemes import SCHEMES, Scheme, compute_tables, scheme_label
from . import angara as _angara    # noqa: F401  (registers "updown-opt")
from . import dor as _dor          # noqa: F401  (registers "dor")
from . import outflank as _outflank  # noqa: F401  (registers "outflank")
from .policies import (POLICIES, PathSelectionPolicy, PolicySpec,
                       make_policy)
from .analysis import route_statistics, RouteStats

__all__ = [
    "SpanningTree",
    "build_spanning_tree",
    "UpDownOrientation",
    "orient_links",
    "compute_simple_routes",
    "enumerate_minimal_paths",
    "build_itb_routes",
    "split_path_at_violations",
    "RoutingTables",
    "compute_tables",
    "SCHEMES",
    "Scheme",
    "scheme_label",
    "POLICIES",
    "PolicySpec",
    "make_policy",
    "PathSelectionPolicy",
    "route_statistics",
    "RouteStats",
]
