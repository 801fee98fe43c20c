"""Dimension-order (XY) routing for 2-D meshes and tori (extension).

The textbook wormhole baseline: route fully along the X dimension, then
fully along Y.  On a **mesh** the X->Y turn restriction removes every
cyclic channel dependency, so DOR is minimal *and* deadlock-free with
no virtual channels -- a useful third comparator next to up*/down* and
ITB routing.  On a **torus** the wraparound links close dependency
cycles within each ring, and Myrinet has no virtual channels to break
them: DOR there is a *deliberately unsafe* configuration which the
deadlock-demonstration benches run under the watchdog.

Routes are single-leg (no in-transit hosts) and exactly one per pair,
so they slot directly into :class:`~repro.routing.table.RoutingTables`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..topology.graph import NetworkGraph
from ..topology.torus import switch_coords, switch_id
from .routes import make_route, path_hops
from .schemes import SCHEMES, Scheme
from .spanning_tree import build_spanning_tree
from .table import RoutingTables
from .updown import orient_links


def _ring_step(frm: int, to: int, size: int, wrap: bool) -> int:
    """Step direction (+1/-1) along one dimension toward ``to``.

    With ``wrap`` the shorter way around the ring is taken (ties toward
    +1); without, the sign of the difference.
    """
    if not wrap:
        return 1 if to > frm else -1
    fwd = (to - frm) % size
    return 1 if fwd <= size - fwd else -1


def dor_path(g: NetworkGraph, src: int, dst: int, rows: int, cols: int,
             wrap: bool) -> Tuple[int, ...]:
    """The XY dimension-order switch path from ``src`` to ``dst``."""
    r0, c0 = switch_coords(src, cols)
    r1, c1 = switch_coords(dst, cols)
    path = [src]
    c = c0
    while c != c1:
        c = (c + _ring_step(c, c1, cols, wrap)) % cols
        path.append(switch_id(r0, c, cols))
    r = r0
    while r != r1:
        r = (r + _ring_step(r, r1, rows, wrap)) % rows
        path.append(switch_id(r, c1, cols))
    return tuple(path)


def compute_dor_tables(g: NetworkGraph, rows: int, cols: int,
                       wrap: bool = False) -> RoutingTables:
    """Dimension-order routing tables for a ``rows`` x ``cols`` grid.

    ``wrap=False`` (mesh): minimal and deadlock-free.  ``wrap=True``
    (torus): minimal but **not** deadlock-free -- only use behind the
    simulator's deadlock watchdog.
    """
    if rows * cols != g.num_switches:
        raise ValueError(f"grid {rows}x{cols} does not match "
                         f"{g.num_switches} switches")
    tree = build_spanning_tree(g, 0)
    ud = orient_links(g, 0, tree)   # orientation kept for diagnostics
    routes: Dict[Tuple[int, int], tuple] = {}
    for src in g.switches():
        for dst in g.switches():
            path = dor_path(g, src, dst, rows, cols, wrap)
            routes[(src, dst)] = (make_route((path_hops(g, path),)),)
    return RoutingTables("dor", 0, ud, routes)


def _build_dor_tables(g: NetworkGraph, root: int = 0,
                      max_routes_per_pair: int = 10) -> RoutingTables:
    """Registry builder: DOR on the graph's declared grid geometry.

    Only mesh geometry is accepted through the registry (the scheme's
    ``supports`` predicate): with wraparound links DOR deadlocks, and
    the deliberately-unsafe torus configuration stays reachable only
    through :func:`compute_dor_tables` directly.
    """
    del root, max_routes_per_pair  # single fixed path
    grid = g.grid
    if grid is None or grid.wrap:
        raise ValueError(
            f"dor routing needs mesh grid geometry, which topology "
            f"{g.name!r} does not declare")
    return compute_dor_tables(g, grid.rows, grid.cols, wrap=False)


SCHEMES.register(Scheme(
    name="dor",
    description="dimension-order (XY) routing: minimal, single-path, "
                "deadlock-free on meshes by the turn-model argument",
    label=lambda policy: "DOR",
    build=_build_dor_tables,
    multipath=False,
    supports=lambda g: g.grid is not None and not g.grid.wrap,
    topology_note="mesh grid geometry (no wraparound)",
))
