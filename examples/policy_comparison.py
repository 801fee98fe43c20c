#!/usr/bin/env python
"""Path-selection policy shoot-out with statistical rigour.

Compares the paper's SP and RR policies with the future-work *adaptive*
policy (per-pair latency EWMA, epsilon-greedy) on the 8x8 torus:

1. A/B comparisons over independent seeds with 95 % t-intervals
   (`repro.experiments.compare`), so "slightly lower latency" is a
   statistical statement rather than single-run noise;
2. an ASCII latency/traffic plot of all three curves;
3. a traced packet showing the in-transit buffer mechanism hop by hop.

Run:  python examples/policy_comparison.py        (~1 minute)
"""

from repro import SimConfig
from repro.experiments.compare import compare_configs
from repro.experiments.plot import render_curves
from repro.experiments.sweep import sweep_rates
from repro.units import ns

WINDOW = dict(topology="torus", routing="itb", traffic="uniform",
              warmup_ps=ns(50_000), measure_ps=ns(200_000))


def ab_tests() -> None:
    print("=== A/B comparisons (3 seeds each, 95% t-intervals) ===\n")
    rate = 0.025  # between the UP/DOWN knee and the ITB knees
    sp = SimConfig(policy="sp", injection_rate=rate, **WINDOW)
    rr = SimConfig(policy="rr", injection_rate=rate, **WINDOW)
    ad = SimConfig(policy="adaptive", injection_rate=rate, **WINDOW)
    print(compare_configs(sp, rr, seeds=(1, 2, 3)).render())
    print()
    print(compare_configs(rr, ad, seeds=(1, 2, 3)).render())
    print()


def curves() -> None:
    print("=== latency vs accepted traffic ===\n")
    rates = [0.01, 0.02, 0.026, 0.030, 0.034]
    series = []
    for policy in ("sp", "rr", "adaptive"):
        base = SimConfig(policy=policy, injection_rate=rates[0], **WINDOW)
        series.append(sweep_rates(base, rates))
    print(render_curves(series, title="8x8 torus, uniform, ITB policies"))
    print()
    for s in series:
        print(f"  {s.label:13s} knee throughput {s.throughput():.4f} "
              f"flits/ns/switch")
    print()


def traced_packet() -> None:
    print("=== one in-transit packet, hop by hop ===\n")
    from repro.runner import get_graph, get_tables
    from repro.routing.policies import SinglePathPolicy
    from repro.routing.routes import route_switches
    from repro.sim import PacketTracer, Simulator, WormholeNetwork, \
        format_trace
    from repro.config import PAPER_PARAMS

    g = get_graph("torus", {})
    tables = get_tables("torus", {}, "itb")
    sim = Simulator()
    net = WormholeNetwork(sim, g, tables, SinglePathPolicy(), PAPER_PARAMS)
    net.tracer = PacketTracer()
    # find a pair whose route needs an in-transit host
    pkt = None
    for (src, dst), alts in tables.routes.items():
        if alts[0][1]:  # store form: route[1] is the in-transit hosts
            pkt = net.send(g.hosts_at(src)[0], g.hosts_at(dst)[0])
            break
    assert pkt is not None
    sim.run_until_idle()
    legs = " | ".join("->".join(map(str, switches))
                      for switches in route_switches(g, src, pkt.route))
    print(f"route legs: {legs}, in-transit hosts {pkt.route[1]}")
    print(format_trace(net.tracer, pkt.pid))
    print("\nNote the eject/reinject pair: the packet leaves the network"
          "\nentirely at the in-transit host (paying 275 + 200 ns) and"
          "\ncontinues on a fresh up*/down* leg -- that is the whole trick.")


def main() -> None:
    ab_tests()
    curves()
    traced_packet()


if __name__ == "__main__":
    main()
