"""Cross-cutting integration invariants at paper scale.

Short windows keep these fast, but they run the real 512/400-host
networks end to end and check the conservation and sanity properties
that hold regardless of load."""

import pytest

from repro.config import SimConfig
from repro.runner import get_graph, get_tables, run_simulation
from repro.routing.policies import make_policy
from repro.sim.engine import Simulator
from repro.sim.network import WormholeNetwork
from repro.traffic import make_pattern
from repro.traffic.base import TrafficProcess, per_host_interval_ps
from repro.units import ns


def run_raw(topology, routing, policy, traffic, rate, horizon_ps,
            seed=3, traffic_kwargs=None):
    """Run without the measurement scaffolding; return the network."""
    g = get_graph(topology, {})
    tables = get_tables(topology, {}, routing)
    sim = Simulator()
    net = WormholeNetwork(sim, g, tables, make_policy(policy, seed),
                          __import__("repro.config",
                                     fromlist=["PAPER_PARAMS"]).PAPER_PARAMS)
    pattern = make_pattern(traffic, g, **(traffic_kwargs or {}))
    proc = TrafficProcess(sim, net, pattern,
                          per_host_interval_ps(rate, 512, g), seed)
    proc.start()
    sim.run_until(horizon_ps)
    return sim, net, proc


class TestConservation:
    @pytest.mark.parametrize("topology,routing,policy,rate", [
        ("torus", "updown", "sp", 0.012),
        ("torus", "itb", "rr", 0.025),
        ("cplant", "itb", "sp", 0.05),
    ])
    def test_generated_equals_delivered_plus_in_flight(
            self, topology, routing, policy, rate):
        sim, net, proc = run_raw(topology, routing, policy, "uniform",
                                 rate, ns(150_000))
        assert net.generated == proc.generated
        assert net.delivered + net.in_flight == net.generated
        assert net.delivered > 0

    def test_draining_after_generation_stops(self):
        """Once generation stops, everything in flight gets delivered
        (no packet is ever lost or stuck below saturation)."""
        sim, net, proc = run_raw("torus", "itb", "rr", "uniform", 0.02,
                                 ns(100_000))
        in_flight = net.in_flight
        assert in_flight > 0
        proc.stop()
        sim.run_until(sim.now + ns(300_000))
        assert net.in_flight == 0
        assert net.delivered == net.generated


class TestChannelInvariants:
    def test_utilisation_bounded_and_consistent(self):
        cfg = SimConfig(topology="torus", routing="itb", policy="rr",
                        traffic="uniform", injection_rate=0.03,
                        warmup_ps=ns(50_000), measure_ps=ns(150_000))
        s = run_simulation(cfg, collect_links=True)
        u = s.link_utilization
        assert all(x >= 0 for x in u.utilization)
        assert all(x <= 1.0 + 1e-9 for x in u.utilization)
        assert all(x <= 1.0 + 1e-9 for x in u.reserved)
        # a channel can never transfer more than it was reserved
        assert all(x >= -1e-9 for x in u.blocked_fraction())

    def test_itb_pool_accounting_balances(self):
        sim, net, _ = run_raw("torus", "itb", "rr", "uniform", 0.02,
                              ns(150_000))
        # drain
        sim.run_until(sim.now + ns(400_000))
        if net.in_flight == 0:
            for nic in net.nics:
                assert nic.itb_bytes == 0

    def test_every_nic_shares_itb_duty(self):
        """With the shared host cycler, in-transit duty is spread: at
        least half the NICs processed at least one in-transit packet
        under sustained RR traffic."""
        sim, net, _ = run_raw("torus", "itb", "rr", "uniform", 0.025,
                              ns(400_000))
        active = sum(1 for nic in net.nics if nic.itb_packets > 0)
        assert active > len(net.nics) / 2


class TestSeedSensitivity:
    def test_different_seeds_same_ballpark(self):
        """Determinism per seed is tested elsewhere; here: independent
        seeds must agree on the physics (accepted traffic within 10 %
        well below saturation)."""
        vals = []
        for seed in (1, 2, 3):
            cfg = SimConfig(topology="torus", routing="itb", policy="rr",
                            traffic="uniform", injection_rate=0.015,
                            warmup_ps=ns(60_000), measure_ps=ns(250_000),
                            seed=seed)
            vals.append(run_simulation(cfg).accepted_flits_ns_switch)
        assert max(vals) - min(vals) <= 0.10 * max(vals)
