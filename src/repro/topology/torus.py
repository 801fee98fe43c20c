"""2-D torus topology (paper Figure 4).

The paper's configuration is an 8x8 grid of 16-port switches, each
connected to its four wraparound neighbours by a single cable and hosting
8 workstations (512 hosts total, 4 ports left open per switch).  The
builder is parameterised so tests and scaled-down benches can use smaller
instances.
"""

from __future__ import annotations

from .graph import GridGeometry, NetworkGraph


def switch_id(row: int, col: int, cols: int) -> int:
    """Row-major switch numbering used by all torus helpers."""
    return row * cols + col


def switch_coords(switch: int, cols: int) -> tuple[int, int]:
    """Inverse of :func:`switch_id`."""
    return divmod(switch, cols)


def add_grid_links(g: NetworkGraph, rows: int, cols: int, step: int,
                   wrap: bool) -> None:
    """Cable every switch to the one ``step`` columns east, then to the
    one ``step`` rows south (around the ring if ``wrap``, else only
    inside the grid), skipping the switch itself and any pair already
    cabled."""
    for r in range(rows):
        for c in range(cols):
            s = switch_id(r, c, cols)
            for r2, c2 in ((r, c + step), (r + step, c)):
                if wrap:
                    r2, c2 = r2 % rows, c2 % cols
                elif r2 >= rows or c2 >= cols:
                    continue
                t = switch_id(r2, c2, cols)
                if t != s and g.link_between(s, t) is None:
                    g.add_link(s, t)


def build_torus(rows: int = 8, cols: int = 8, hosts_per_switch: int = 8,
                switch_ports: int = 16) -> NetworkGraph:
    """Build a ``rows`` x ``cols`` 2-D torus.

    Each switch links to its +1 neighbour in each dimension (wraparound),
    which yields exactly one cable per adjacent pair.  Degenerate rings of
    size 2 are supported (the wraparound cable coincides with the direct
    one and is added once); rings of size 1 have no links in that
    dimension.
    """
    if rows < 1 or cols < 1:
        raise ValueError("torus dimensions must be positive")
    n = rows * cols
    needed = hosts_per_switch + (2 if rows > 2 else (1 if rows == 2 else 0)) \
        + (2 if cols > 2 else (1 if cols == 2 else 0))
    if needed > switch_ports:
        raise ValueError(
            f"{switch_ports}-port switches cannot host {hosts_per_switch} "
            f"hosts plus {needed - hosts_per_switch} torus links")
    g = NetworkGraph(n, switch_ports, name=f"torus-{rows}x{cols}")
    g.grid = GridGeometry(rows, cols, wrap=True)
    add_grid_links(g, rows, cols, 1, wrap=True)
    for s in range(n):
        g.add_hosts(s, hosts_per_switch)
    return g.freeze()
