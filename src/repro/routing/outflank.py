"""OutFlank-style adaptive non-minimal routing for grids (arXiv 1310.7453).

OutFlank Routing (OFR, Versaci 2013) raises toroidal throughput by
letting packets *flank* the congested minimal bounding box: besides the
dimension-ordered minimal paths, a packet may first step sideways onto
an adjacent row or column and travel there, rejoining the destination
coordinate at the end.  Under adaptive selection the lateral detours
drain load off the saturated central rings, which is where the +2 hops
pay for themselves.

This module expresses OFR as **source-route alternative sets** so both
existing engines run it unchanged:

* per pair, the two dimension-ordered minimal paths (XY and YX) plus up
  to four flanking detours via the adjacent rows/columns of the source
  (wrap-aware on tori, clipped at mesh edges);
* deadlock freedom comes from the repo's native mechanism rather than
  OFR's virtual-network split (Myrinet has no virtual channels): the
  candidate paths go through the ITB scheme's own recipe
  (:func:`repro.routing.itb.assemble_itb_routes`), which cuts each at
  its up*/down* violations and joins the pieces through in-transit
  hosts, so each leg is a legal up*/down* sub-path, the first
  alternatives are load-balanced, and a pair's ``SourceRoute`` objects
  are built on its first lookup;
* the alternative sets feed the existing RR / adaptive selection
  policies, which supply OFR's adaptivity at the source.

Registered as ``"outflank"``; requires grid geometry
(``graph.grid is not None``), i.e. torus, express torus or mesh.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..topology.graph import GridGeometry, NetworkGraph
from .dor import _ring_step
from .itb import _cut_indices, assemble_itb_routes
from .schemes import SCHEMES, Scheme
from .spanning_tree import build_spanning_tree
from .table import RoutingTables
from .updown import orient_links


def _walk(frm: int, to: int, size: int, wrap: bool) -> List[int]:
    """Ring coordinates strictly after ``frm`` up to and including
    ``to``, along the shorter arc (ties toward +1, like DOR)."""
    out: List[int] = []
    x = frm
    while x != to:
        x = (x + _ring_step(x, to, size, wrap)) % size
        out.append(x)
    return out


def candidate_paths(grid: GridGeometry, src: int, dst: int
                    ) -> List[Tuple[int, ...]]:
    """OutFlank candidate switch paths for one ordered pair.

    Deterministic order: the minimal dimension-ordered paths first
    (XY, then YX when distinct), then the flanking detours sorted by
    (length, path).  Duplicates (e.g. XY == YX on a shared row) are
    emitted once.
    """
    (r0, c0), (r1, c1) = grid.coords(src), grid.coords(dst)
    rows, cols, wrap = grid.rows, grid.cols, grid.wrap

    def build(rsteps_first: bool, via_row: Optional[int] = None,
              via_col: Optional[int] = None) -> Tuple[int, ...]:
        """One candidate as a coordinate walk -> switch-id tuple."""
        path = [(r0, c0)]
        if via_row is not None:
            # flank: sidestep onto via_row, run the columns there, then
            # close the rows along the destination column
            path.append((via_row, c0))
            path.extend((via_row, c) for c in _walk(c0, c1, cols, wrap))
            path.extend((r, c1) for r in _walk(via_row, r1, rows, wrap))
        elif via_col is not None:
            path.append((r0, via_col))
            path.extend((r, via_col) for r in _walk(r0, r1, rows, wrap))
            path.extend((r1, c) for c in _walk(via_col, c1, cols, wrap))
        elif rsteps_first:
            path.extend((r, c0) for r in _walk(r0, r1, rows, wrap))
            path.extend((r1, c) for c in _walk(c0, c1, cols, wrap))
        else:
            path.extend((r0, c) for c in _walk(c0, c1, cols, wrap))
            path.extend((r, c1) for r in _walk(r0, r1, rows, wrap))
        return tuple(grid.switch(r, c) for r, c in path)

    minimal = [build(rsteps_first=False)]
    yx = build(rsteps_first=True)
    if yx != minimal[0]:
        minimal.append(yx)

    flanks: List[Tuple[int, ...]] = []
    if c0 != c1:  # sidestep onto an adjacent row, run the columns there
        for dr in (1, -1):
            via = (r0 + dr) % rows if wrap else r0 + dr
            if 0 <= via < rows and via != r0:
                flanks.append(build(False, via_row=via))
    if r0 != r1:  # sidestep onto an adjacent column
        for dc in (1, -1):
            via = (c0 + dc) % cols if wrap else c0 + dc
            if 0 <= via < cols and via != c0:
                flanks.append(build(False, via_col=via))

    out: List[Tuple[int, ...]] = []
    seen = set(minimal)
    out.extend(minimal)
    for path in sorted(set(flanks) - seen, key=lambda p: (len(p), p)):
        out.append(path)
    return out


def build_outflank_tables(g: NetworkGraph, root: int = 0,
                          max_routes_per_pair: int = 10) -> RoutingTables:
    """OutFlank tables: minimal + flanking alternatives per pair, each
    split into legal up*/down* legs at in-transit hosts, minimal paths
    first and flanks after (the OFR preference order).
    """
    grid = g.grid
    if grid is None:
        raise ValueError(
            f"outflank routing needs grid geometry, which topology "
            f"{g.name!r} does not declare")
    tree = build_spanning_tree(g, root)
    ud = orient_links(g, root, tree)

    def cut(path: Tuple[int, ...]):
        lids = g.path_links(path)
        return path, lids, _cut_indices(path, lids, ud.up_end)

    def candidates():
        for src in g.switches():
            for dst in g.switches():
                paths = ([(src,)] if src == dst else
                         candidate_paths(grid, src, dst)[:max_routes_per_pair])
                yield (src, dst), [cut(p) for p in paths]

    return RoutingTables("outflank", root, ud,
                         assemble_itb_routes(g, candidates()))


SCHEMES.register(Scheme(
    name="outflank",
    description="OutFlank-style adaptive non-minimal grid routing: "
                "XY/YX minimal paths plus lateral flanking detours, "
                "made deadlock-free via in-transit buffers "
                "(arXiv 1310.7453)",
    label=lambda policy: f"OFR-{policy.upper()}",
    build=build_outflank_tables,
    multipath=True,
    supports=lambda g: g.grid is not None,
    topology_note="grid geometry (torus, torus-express, mesh)",
))
