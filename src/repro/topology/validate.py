"""Topology invariant checks.

:func:`check_topology` is called by the experiment runner before any
simulation and by the topology test-suite.  It verifies the structural
assumptions the routing and simulation layers rely on:

* the graph is frozen, connected, and respects the switch port budget;
* adjacency, link index and per-switch host lists are mutually
  consistent;
* every host is attached to a valid switch.
"""

from __future__ import annotations

from .graph import NetworkGraph


def check_topology(g: NetworkGraph) -> None:
    """Raise :class:`AssertionError` describing the first violated
    invariant (an explicit raise, so ``python -O`` checks too)."""
    if not g.frozen:
        raise AssertionError("topology must be frozen before use")
    if not g.is_connected():
        raise AssertionError(f"{g.name}: switch graph is not connected")
    if not g.num_hosts > 0:
        raise AssertionError(f"{g.name}: no hosts attached")

    # port accounting
    for s in g.switches():
        used = g.degree(s) + len(g.hosts_at(s))
        if used != g.ports_used(s):
            raise AssertionError(
                f"{g.name}: switch {s} port bookkeeping mismatch "
                f"({used} != {g.ports_used(s)})")
        if used > g.switch_ports:
            raise AssertionError(
                f"{g.name}: switch {s} uses {used} ports > {g.switch_ports}")

    # adjacency <-> link list consistency
    seen_from_adj = set()
    for s in g.switches():
        for nb, lid in g.neighbors(s):
            link = g.links[lid]
            if {link.a, link.b} != {s, nb}:
                raise AssertionError(
                    f"{g.name}: adjacency of switch {s} disagrees with "
                    f"link {lid}")
            seen_from_adj.add(lid)
    if seen_from_adj != set(range(g.num_links)):
        raise AssertionError(
            f"{g.name}: some links missing from adjacency lists")

    for link in g.links:
        if g.link_between(link.a, link.b) != link.id:
            raise AssertionError(
                f"{g.name}: link index broken for link {link.id}")

    # hosts
    for host in g.hosts:
        if not 0 <= host.switch < g.num_switches:
            raise AssertionError(
                f"{g.name}: host {host.id} attached to invalid switch")
        if host.id not in g.hosts_at(host.switch):
            raise AssertionError(
                f"{g.name}: host {host.id} missing from "
                f"hosts_at({host.switch})")
