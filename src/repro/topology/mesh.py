"""2-D mesh topology (extension substrate).

A torus without wraparound links.  Not part of the paper's evaluation,
but the natural habitat of the classic **dimension-order routing**
baseline (`repro.routing.dor`): on a mesh, DOR is minimal and
deadlock-free without virtual channels, which makes it a meaningful
third point of comparison against up*/down* and ITB routing -- and a
foil for demonstrating *why* the torus needs the ITB mechanism (DOR on
a torus deadlocks without virtual channels, which Myrinet does not
have).
"""

from __future__ import annotations

from .graph import GridGeometry, NetworkGraph
from .torus import add_grid_links


def build_mesh(rows: int = 8, cols: int = 8, hosts_per_switch: int = 8,
               switch_ports: int = 16) -> NetworkGraph:
    """Build a ``rows`` x ``cols`` 2-D mesh (no wraparound)."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    n = rows * cols
    g = NetworkGraph(n, switch_ports, name=f"mesh-{rows}x{cols}")
    g.grid = GridGeometry(rows, cols, wrap=False)
    add_grid_links(g, rows, cols, 1, wrap=False)
    for s in range(n):
        g.add_hosts(s, hosts_per_switch)
    return g.freeze()
