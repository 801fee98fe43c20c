"""Routing-scheme registry: table builders selected by name.

:data:`SCHEMES` is a :class:`repro.registry.Registry`: every routing
scheme registers itself under a short name together with a
**capability declaration** -- which graphs it supports, whether its
tables are deadlock-free by construction, and which legality
*discipline* its routes obey -- and
everything outside :mod:`repro.routing` (config validation, the
experiment runner, the CLI, the tournament) dispatches through this
registry instead of hard-coding scheme names.  Registering a fifth
scheme is one :func:`register_scheme` call::

    from repro.routing.schemes import Scheme, register_scheme

    register_scheme(Scheme(
        name="my-scheme",
        description="...",
        label=lambda policy: "MY",
        build=my_table_builder,            # (g, root, max_routes, sort)
        discipline="updown",
        deadlock_free=True,
        multipath=False,
        supports=lambda g: True,
    ))

after which ``SimConfig(routing="my-scheme")``, ``repro run``,
``repro experiment tournament`` and the property suite all pick it up.

Disciplines
-----------

A scheme's ``discipline`` names the executable deadlock-freedom
argument its routes are checked against by
:meth:`~repro.routing.table.RoutingTables.validate`:

* ``"updown"`` -- every leg individually satisfies the up*/down* rule
  of the table's orientation (legs joined at in-transit hosts each
  start a fresh dependency chain, Section 3 of the paper);
* ``"dimension-order"`` -- every route is a single leg that crosses
  grid dimensions in X-then-Y order, each dimension monotonically
  (the classic turn-model argument; deadlock-free on meshes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from ..registry import Registry
from ..topology.graph import NetworkGraph
from .itb import build_itb_routes
from .simple_routes import simple_route_table
from .spanning_tree import build_spanning_tree
from .table import RoutingTables
from .updown import orient_links

#: builder signature: (graph, root, max_routes_per_pair, sort_by_itbs)
TableBuilder = Callable[[NetworkGraph, int, int, bool], RoutingTables]

#: the legality disciplines validate() knows how to check
DISCIPLINES = ("updown", "dimension-order")


@dataclass(frozen=True)
class Scheme:
    """One registered routing scheme and its capability declaration."""

    name: str
    #: one-line description (shown by ``repro schemes`` / docs)
    description: str
    #: display label as a function of the path-selection policy
    label: Callable[[str], str]
    build: TableBuilder
    #: legality discipline of every produced route (see module docs)
    discipline: str
    #: deadlock-free by construction on every supported graph?
    deadlock_free: bool
    #: does the scheme produce >1 alternative per pair (so RR/adaptive
    #: selection is meaningful)?
    multipath: bool
    #: graph predicate: can tables be built for this network at all?
    supports: Callable[[NetworkGraph], bool] = field(default=lambda g: True)
    #: human-readable supported-topology note for docs/errors
    topology_note: str = "any connected switch graph"

    def __post_init__(self) -> None:
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"scheme {self.name!r} declares unknown discipline "
                f"{self.discipline!r}; known: {', '.join(DISCIPLINES)}")


#: the routing-scheme registry; the names below are bindings to it
SCHEMES: Registry[Scheme] = Registry("routing scheme")
register_scheme = SCHEMES.register
unregister_scheme = SCHEMES.unregister
available_schemes = SCHEMES.names
get_scheme = SCHEMES.get
supported_schemes = SCHEMES.supported


def scheme_label(name: str, policy: str) -> str:
    """Display label of a (scheme, policy) combination."""
    return get_scheme(name).label(policy)


def make_tables(g: NetworkGraph, scheme: str, root: int = 0,
                max_routes_per_pair: int = 10,
                sort_by_itbs: bool = False) -> RoutingTables:
    """Build routing tables for ``g`` under the scheme named ``scheme``.

    The registry-level entry point behind
    :func:`repro.routing.table.compute_tables`.  Raises
    :class:`ValueError` with the supported-topology note when the
    scheme declares it cannot route this graph (e.g. a grid-geometry
    scheme handed an irregular network).
    """
    s = get_scheme(scheme)
    if not s.supports(g):
        raise ValueError(
            f"scheme {scheme!r} does not support topology {g.name!r} "
            f"(requires: {s.topology_note})")
    return s.build(g, root, max_routes_per_pair, sort_by_itbs)


# -- discipline checks -------------------------------------------------------


def check_updown_discipline(tables: RoutingTables, g: NetworkGraph) -> None:
    """Assert every leg of every route is up*/down*-legal.

    Legs joined at in-transit hosts each start a fresh up*/down* phase,
    so per-leg legality is the whole deadlock-freedom argument.  The
    direction of a hop is read from the link id the leg carries (the
    cable the packet really crosses) and the orientation's up end;
    :meth:`RoutingTables.validate` has already tied each id to its two
    switches.
    """
    del g  # legality is a function of the carried links alone
    up_end = tables.orientation.up_end
    for (src, dst), alts in tables.routes.items():
        for route in alts:
            for leg in route.legs:
                gone_down = False
                for lid, to in zip(leg.links, leg.switches[1:]):
                    if up_end[lid] != to:
                        gone_down = True
                    else:
                        assert not gone_down, (
                            f"illegal leg {leg.switches} in route "
                            f"{src}->{dst}")


def check_dimension_order_discipline(tables: RoutingTables,
                                     g: NetworkGraph) -> None:
    """Assert every route is one leg moving X-then-Y, each monotonically.

    The turn-model argument: forbidding Y->X turns (and reversals
    within a dimension) leaves no cyclic channel dependency on a mesh.
    """
    grid = g.grid
    assert grid is not None, (
        "dimension-order discipline needs grid geometry on the graph")

    def step(a: int, b: int) -> Tuple[int, int]:
        """(dimension, signed direction) of one hop, wrap-aware."""
        (ra, ca), (rb, cb) = grid.coords(a), grid.coords(b)
        if ra == rb:
            d = (cb - ca) % grid.cols
            return 0, (1 if d == 1 else -1)
        d = (rb - ra) % grid.rows
        return 1, (1 if d == 1 else -1)

    for (src, dst), alts in tables.routes.items():
        for route in alts:
            assert len(route.legs) == 1, (
                f"dimension-order route {src}->{dst} must be single-leg")
            path = route.legs[0].switches
            last_dim = -1
            dim_dir: Dict[int, int] = {}
            for a, b in zip(path, path[1:]):
                dim, sign = step(a, b)
                assert dim >= last_dim, (
                    f"route {src}->{dst} turns back to dimension {dim} "
                    f"after dimension {last_dim}: {path}")
                assert dim_dir.setdefault(dim, sign) == sign, (
                    f"route {src}->{dst} reverses direction in "
                    f"dimension {dim}: {path}")
                last_dim = dim


_DISCIPLINE_CHECKS: Dict[str, Callable[[RoutingTables, NetworkGraph], None]] \
    = {
        "updown": check_updown_discipline,
        "dimension-order": check_dimension_order_discipline,
    }


def check_discipline(tables: RoutingTables, g: NetworkGraph) -> None:
    """Run the deadlock-discipline check declared by the tables' scheme.

    Tables whose scheme is not registered (tests build raw
    :class:`RoutingTables` directly) fall back to the up*/down* check,
    the discipline of every paper scheme.
    """
    discipline = (SCHEMES.get(tables.scheme).discipline
                  if tables.scheme in SCHEMES else "updown")
    _DISCIPLINE_CHECKS[discipline](tables, g)


# -- built-in schemes (the paper's two) --------------------------------------


def _grid_supported(g: NetworkGraph) -> bool:
    return g.grid is not None


def _mesh_grid_supported(g: NetworkGraph) -> bool:
    return g.grid is not None and not g.grid.wrap


def build_updown_tables(g: NetworkGraph, root: int = 0,
                        max_routes_per_pair: int = 10,
                        sort_by_itbs: bool = False) -> RoutingTables:
    """The UP/DOWN baseline: one balanced legal route per pair."""
    del max_routes_per_pair, sort_by_itbs  # single fixed path per pair
    tree = build_spanning_tree(g, root)
    ud = orient_links(g, root, tree)
    return RoutingTables("updown", root, ud, simple_route_table(g, ud))


def build_itb_tables(g: NetworkGraph, root: int = 0,
                     max_routes_per_pair: int = 10,
                     sort_by_itbs: bool = False) -> RoutingTables:
    """Minimal routing with in-transit buffers (the paper's scheme)."""
    tree = build_spanning_tree(g, root)
    ud = orient_links(g, root, tree)
    routes = build_itb_routes(g, ud, max_routes_per_pair, sort_by_itbs)
    return RoutingTables("itb", root, ud, routes)


register_scheme(Scheme(
    name="updown",
    description="up*/down* baseline: one balanced legal route per pair "
                "(Myricom simple_routes)",
    label=lambda policy: "UP/DOWN",
    build=build_updown_tables,
    discipline="updown",
    deadlock_free=True,
    multipath=False,
))

register_scheme(Scheme(
    name="itb",
    description="minimal routing with in-transit buffers: up to 10 "
                "minimal alternatives split into legal legs (the paper)",
    label=lambda policy: f"ITB-{policy.upper()}",
    build=build_itb_tables,
    discipline="updown",
    deadlock_free=True,
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
