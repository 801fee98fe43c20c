"""Routing-scheme registry: table builders selected by name.

:data:`SCHEMES` is a :class:`repro.registry.Registry`: every routing
scheme registers itself under a short name together with what it
*declares* -- a builder, a display label, whether it offers more than
one alternative per pair, and which graphs it can route at all -- and
everything outside :mod:`repro.routing` (config validation, the
experiment runner, the CLI, the tournament) dispatches through this
registry instead of hard-coding scheme names.  Registering a scheme is
one call::

    from repro.routing.schemes import SCHEMES, Scheme

    SCHEMES.register(Scheme(
        name="my-scheme",
        description="...",
        label=lambda policy: "MY",
        build=my_table_builder,            # (g, root, max_routes)
        multipath=False,
        supports=lambda g: True,
    ))

after which ``SimConfig(routing="my-scheme")``, ``repro run``,
``repro experiment tournament`` and the property suite all pick it up.

Deadlock freedom is not among the declarations.  It is a property of
the tables a builder returns, and
:meth:`~repro.routing.table.RoutingTables.validate` checks it there,
the same way for every scheme: the channel-dependency graph of the
table's legs must be acyclic.  How a scheme gets there -- up*/down*
legal legs joined at in-transit hosts, X-then-Y turns on a mesh -- is
a fact about that scheme, asserted by its own tests.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable

from ..registry import Registry, UsageError
from ..topology.graph import NetworkGraph
from .itb import build_itb_routes
from .simple_routes import simple_route_table
from .spanning_tree import build_spanning_tree
from .table import RoutingTables
from .updown import orient_links

#: builder signature: (graph, root, max_routes_per_pair)
TableBuilder = Callable[[NetworkGraph, int, int], RoutingTables]


@dataclass(frozen=True)
class Scheme:
    """One registered routing scheme and what it declares."""

    name: str
    #: one-line description (shown by ``repro schemes`` / docs)
    description: str
    #: display label as a function of the path-selection policy
    label: Callable[[str], str]
    build: TableBuilder
    #: does the scheme produce >1 alternative per pair (so RR/adaptive
    #: selection is meaningful)?
    multipath: bool
    #: graph predicate: can tables be built for this network at all?
    supports: Callable[[NetworkGraph], bool] = field(default=lambda g: True)
    #: human-readable supported-topology note for docs/errors
    topology_note: str = "any connected switch graph"


#: the routing-scheme registry
SCHEMES: Registry[Scheme] = Registry("routing scheme")


def scheme_label(name: str, policy: str) -> str:
    """Display label of a (scheme, policy) combination."""
    return SCHEMES.get(name).label(policy)


def compute_tables(g: NetworkGraph, scheme: str, root: int = 0,
                   max_routes_per_pair: int = 10,
                   sort_by_itbs: bool = False) -> RoutingTables:
    """Build routing tables for ``g`` under the registered ``scheme``.

    The one entry point (the experiment runner and the reconfiguration
    manager call it); results are deterministic for a given (graph,
    scheme, root).  An unknown scheme, or one that declares it cannot
    route this graph (a grid-geometry scheme handed an irregular
    network), is a :class:`~repro.registry.UsageError` naming what is
    available / required.  ``sort_by_itbs`` is accepted only as
    ``False``, for callers of the five-argument form: no scheme sorts
    its alternatives by in-transit hops (the paper's SP does not
    optimise this); :func:`~repro.routing.itb.build_itb_routes` does,
    and ``tests/test_itb.py`` studies it there.

    The builder runs with the cyclic garbage collector paused: a build
    allocates hundreds of thousands of containers and no reference
    cycle, so every collection it would trigger (hundreds of them on the
    8x8 torus ``itb`` build, a few of them full) scans and frees
    nothing.  The collector is left as it was found, also when the
    builder raises; one the caller had disabled stays disabled.

    A finished build then moves every tracked object to the oldest
    generation (``gc.freeze()`` + ``gc.unfreeze()``, O(1)), so the next
    young-generation passes do not scan the table just built either.
    The move is process-wide: whatever the caller allocated before the
    build moves too, so young cyclic garbage of the caller's waits for
    the next full collection (which still sees everything; nothing
    stays frozen).
    """
    if sort_by_itbs:
        raise UsageError("no registered scheme sorts by in-transit hops; "
                         "build_itb_routes(sort_by_itbs=True) does")
    build = SCHEMES.supporting(scheme, g).build
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tables = build(g, root, max_routes_per_pair)
        gc.freeze()
        gc.unfreeze()
        return tables
    finally:
        if was_enabled:
            gc.enable()


# -- built-in schemes (the paper's two) --------------------------------------


def build_updown_tables(g: NetworkGraph, root: int = 0,
                        max_routes_per_pair: int = 10) -> RoutingTables:
    """The UP/DOWN baseline: one balanced legal route per pair."""
    del max_routes_per_pair  # single fixed path per pair
    tree = build_spanning_tree(g, root)
    ud = orient_links(g, root, tree)
    return RoutingTables("updown", root, ud, simple_route_table(g, ud))


def build_itb_tables(g: NetworkGraph, root: int = 0,
                     max_routes_per_pair: int = 10) -> RoutingTables:
    """Minimal routing with in-transit buffers (the paper's scheme)."""
    tree = build_spanning_tree(g, root)
    ud = orient_links(g, root, tree)
    routes = build_itb_routes(g, ud, max_routes_per_pair)
    return RoutingTables("itb", root, ud, routes)


SCHEMES.register(Scheme(
    name="updown",
    description="up*/down* baseline: one balanced legal route per pair "
                "(Myricom simple_routes)",
    label=lambda policy: "UP/DOWN",
    build=build_updown_tables,
    multipath=False,
))

SCHEMES.register(Scheme(
    name="itb",
    description="minimal routing with in-transit buffers: up to 10 "
                "minimal alternatives split into legal legs (the paper)",
    label=lambda policy: f"ITB-{policy.upper()}",
    build=build_itb_tables,
    multipath=True,
))

#: the paper's contenders as ``(routing, policy, label)``: original
#: up*/down*, and in-transit buffers under shortest-path and round-robin
#: path selection.  Every figure, table and study that compares "the
#: paper's schemes" reads these.
UPDOWN, ITB_SP, ITB_RR = (
    (routing, policy, scheme_label(routing, policy))
    for routing, policy in (("updown", "sp"), ("itb", "sp"), ("itb", "rr")))
PAPER_SCHEMES = (UPDOWN, ITB_SP, ITB_RR)
