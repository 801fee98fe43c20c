"""2-D torus with express channels (paper Figure 5).

Identical to the plain torus except that every switch is additionally
connected to its *second-order* neighbours -- the switches two hops away
in each dimension (Dally's express cubes [3]).  In the paper's 8x8
configuration this uses all 16 switch ports: 4 torus links + 4 express
links + 8 hosts.

In a ring of size ``k`` the +2 links form one secondary ring (k odd) or
two disjoint secondary rings (k even); either way each switch gains
exactly two express neighbours per dimension when ``k > 4``.  For ``k ==
4`` the +2 neighbour in both directions is the same switch, so only one
express cable is added, and for ``k <= 2`` the express channel would
duplicate a torus link and is skipped.
"""

from __future__ import annotations

from .graph import GridGeometry, NetworkGraph
from .torus import add_grid_links


def build_torus_express(rows: int = 8, cols: int = 8, hosts_per_switch: int = 8,
                        switch_ports: int = 16) -> NetworkGraph:
    """Build a 2-D torus augmented with express channels.

    Express cables connect ``(r, c)`` to ``(r, c+2)`` and ``(r+2, c)``
    (mod the ring size), skipping any pair already joined by a torus
    cable and never adding a cable twice.
    """
    if rows < 1 or cols < 1:
        raise ValueError("torus dimensions must be positive")
    n = rows * cols
    g = NetworkGraph(n, switch_ports, name=f"torus-express-{rows}x{cols}")
    # the underlying ring structure is a torus: geometry-aware schemes
    # may route over the +1 rings and simply not use the express cables
    g.grid = GridGeometry(rows, cols, wrap=True)
    # regular torus links first (same ordering as build_torus), then
    # the express channels to second-order neighbours
    add_grid_links(g, rows, cols, 1, wrap=True)
    add_grid_links(g, rows, cols, 2, wrap=True)
    for s in range(n):
        g.add_hosts(s, hosts_per_switch)
    return g.freeze()
