#!/usr/bin/env python
"""Bring your own topology: wiring, routing, deadlock, simulation.

Demonstrates the full public API on a network that is *not* one of the
paper's: a 3x3 mesh-with-wraparound-row ("partial torus") of 4-port
workgroup switches, 2 hosts each.  The walk-through:

1. build and validate the custom :class:`NetworkGraph`, and register
   its builder so ``SimConfig(topology="partial-torus")`` (and, in this
   process, ``repro run --topology partial-torus``) can name it;
2. compute up*/down* and ITB routing tables and compare their quality;
3. show that naive minimal source routing (no ITBs) deadlocks on this
   cyclic topology -- and that the watchdog catches it;
4. simulate both routings and report throughput/latency.

Run:  python examples/custom_topology.py
"""

from repro import (DeadlockError, NetworkGraph, SimConfig, check_topology,
                   compute_tables, route_statistics, run_simulation)
from repro.routing.routes import make_route, path_hops
from repro.routing.table import RoutingTables
from repro.registry import Kwarg
from repro.topology import TOPOLOGIES, Topology
from repro.units import ns


def build_partial_torus(hosts_per_switch: int = 2) -> NetworkGraph:
    """3x3 grid, rows wrap around (each row is a ring), columns do not."""
    g = NetworkGraph(9, switch_ports=8, name="partial-torus-3x3")
    for r in range(3):
        for c in range(3):
            s = r * 3 + c
            g.add_link(s, r * 3 + (c + 1) % 3)  # row ring
            if r < 2:
                g.add_link(s, (r + 1) * 3 + c)  # column line
    for s in range(9):
        g.add_hosts(s, hosts_per_switch)
    return g.freeze()


def clockwise_ring_tables(g, tables):
    """Dimension-ordered routes that always walk row rings clockwise --
    the classic cyclic channel dependency that up*/down* (and ITB's leg
    splitting) exists to forbid.  Deliberately unsafe."""
    routes = {}
    for src in g.switches():
        for dst in g.switches():
            path = [src]
            # clockwise along the row ring first ...
            while path[-1] % 3 != dst % 3:
                path.append((path[-1] // 3) * 3 + (path[-1] + 1) % 3)
            # ... then straight down/up the column
            while path[-1] != dst:
                step = 3 if dst > path[-1] else -3
                path.append(path[-1] + step)
            routes[(src, dst)] = (make_route([path_hops(g, path)]),)
    return RoutingTables("itb", 0, tables.orientation, routes)


def main() -> None:
    g = build_partial_torus()
    check_topology(g)
    print(f"built {g}: degrees "
          f"{sorted(set(g.degree(s) for s in g.switches()))}, "
          f"{g.num_hosts} hosts\n")

    # registering makes the topology usable from SimConfig by name;
    # declaring the kwarg lets --hosts-per-switch reach the builder
    TOPOLOGIES.register(Topology(
        "partial-torus", "3x3 grid whose rows wrap and columns do not",
        build_partial_torus,
        (Kwarg("hosts_per_switch", int, 2, "hosts per switch"),)))

    print("=== route quality ===")
    for scheme in ("updown", "itb"):
        st = route_statistics(g, compute_tables(g, scheme))
        print(f"{scheme:7s}: {st.fraction_minimal:6.1%} minimal, "
              f"avg {st.avg_distance_sp:.2f} links, "
              f"{st.avg_alternatives:.1f} alternatives/pair, "
              f"{st.avg_itbs_rr:.2f} ITBs/msg (RR)")

    print("\n=== deadlock demonstration ===")
    cfg = SimConfig(topology="partial-torus", routing="itb", policy="sp",
                    traffic="uniform", injection_rate=0.3,
                    warmup_ps=ns(300_000), measure_ps=ns(2_000_000))
    tables = compute_tables(g, "updown")
    try:
        run_simulation(cfg, tables=clockwise_ring_tables(g, tables),
                       watchdog_ps=ns(100_000))
        print("clockwise ring routing survived (lucky run)")
    except DeadlockError as e:
        print(f"clockwise ring routing (no ITBs): DEADLOCK detected -- {e}")
    ok = run_simulation(cfg.with_overrides(policy="rr"),
                        watchdog_ps=ns(100_000))
    print(f"ITB minimal routing at the same load: "
          f"{ok.messages_delivered} messages delivered, no deadlock\n")

    print("=== throughput comparison (uniform traffic) ===")
    for routing, policy in [("updown", "sp"), ("itb", "rr")]:
        for rate in (0.05, 0.10, 0.15):
            cfg = SimConfig(topology="partial-torus", routing=routing,
                            policy=policy, traffic="uniform",
                            injection_rate=rate,
                            warmup_ps=ns(50_000), measure_ps=ns(200_000))
            print(run_simulation(cfg).oneline())


if __name__ == "__main__":
    main()
