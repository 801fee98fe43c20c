#!/usr/bin/env python
"""Quickstart: UP/DOWN vs in-transit buffer routing on the paper's torus.

Runs the paper's headline comparison at a single offered load on the
8x8 / 512-host 2-D torus with uniform traffic, using the Myrinet timing
constants of the paper, and prints the routing-table statistics the
paper quotes in Section 4.7.1.

Run:  python examples/quickstart.py
"""

from repro import SimConfig, run_simulation
from repro.runner import get_graph, get_tables
from repro.routing import route_statistics
from repro.units import ns


def main() -> None:
    print("=== Routing-table statistics (8x8 torus, 512 hosts) ===")
    g = get_graph("torus", {})
    for scheme in ("updown", "itb"):
        tables = get_tables("torus", {}, scheme)
        st = route_statistics(g, tables)
        print(f"{scheme:7s}: minimal paths {st.fraction_minimal:6.1%}  "
              f"avg distance {st.avg_distance_sp:.2f} links  "
              f"ITBs/msg (SP) {st.avg_itbs_sp:.2f}  (RR) {st.avg_itbs_rr:.2f}")
    print("paper  : up*/down* 80% minimal / 4.57 links;"
          " ITB 100% / 4.06 links; 0.43 / 0.54 ITBs per message\n")

    # offered load just above UP/DOWN's saturation point (0.015)
    rate = 0.02
    print(f"=== Uniform traffic at {rate} flits/ns/switch ===")
    for routing, policy in [("updown", "sp"), ("itb", "sp"), ("itb", "rr")]:
        cfg = SimConfig(topology="torus", routing=routing, policy=policy,
                        traffic="uniform", injection_rate=rate,
                        warmup_ps=ns(80_000), measure_ps=ns(300_000))
        summary = run_simulation(cfg)
        print(summary.oneline())
    print("\nUP/DOWN saturates (accepted < offered) while both ITB"
          " configurations still deliver the full load -- the paper's"
          " headline result.")


if __name__ == "__main__":
    main()
