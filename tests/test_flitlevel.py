"""Flit-level engine: exact timing, stop&go, and cross-engine validation.

The flit engine is the ground truth for the packet engine's "tail wave"
approximation; the cross-validation tests here are the quantitative
justification for using the fast model at paper scale (DESIGN.md
Section 5).
"""

import pytest

from repro.config import PAPER_PARAMS
from repro.runner import run_simulation
from repro.routing.policies import SinglePathPolicy
from repro.routing import compute_tables
from repro.sim.engine import Simulator
from repro.sim.flitlevel import FlitLevelNetwork
from repro.topology import build_torus
from repro.units import ns
from tests.conftest import small_config

P = PAPER_PARAMS


@pytest.fixture(scope="module")
def ring4():
    return build_torus(rows=1, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def ring4_tables(ring4):
    return compute_tables(ring4, "updown")


def make_flit_network(g, tables, message_bytes=512):
    sim = Simulator()
    net = FlitLevelNetwork(sim, g, tables, SinglePathPolicy(), P,
                           message_bytes=message_bytes)
    return sim, net


def flit_zero_load_delivery_ps(switch_hops, payload):
    """Exact single-packet delivery time in the flit engine.

    The header flit crosses ``hops + 2`` wires (inj + hops + delivery)
    and pays routing at each of the ``hops + 1`` switches; the last of
    the ``wire`` flits follows ``wire - 1`` flit cycles behind.
    """
    wire = payload + P.header_type_bytes + switch_hops
    head = ((switch_hops + 2) * P.link_prop_ps
            + (switch_hops + 1) * P.routing_delay_ps)
    return head + (wire - 1) * P.flit_cycle_ps


class TestExactTiming:
    def test_one_hop(self, ring4, ring4_tables):
        sim, net = make_flit_network(ring4, ring4_tables)
        pkt = net.send(0, 2)
        assert pkt.switch_hops == 1
        sim.run_until_idle()
        assert pkt.delivered_ps == flit_zero_load_delivery_ps(1, 512)

    def test_same_switch(self, ring4, ring4_tables):
        sim, net = make_flit_network(ring4, ring4_tables)
        pkt = net.send(0, 1)
        sim.run_until_idle()
        assert pkt.delivered_ps == flit_zero_load_delivery_ps(0, 512)

    def test_two_hops(self, ring4, ring4_tables):
        sim, net = make_flit_network(ring4, ring4_tables)
        pkt = net.send(0, 4)  # switch 0 -> switch 2
        assert pkt.switch_hops == 2
        sim.run_until_idle()
        assert pkt.delivered_ps == flit_zero_load_delivery_ps(2, 512)

    def test_small_message(self, ring4, ring4_tables):
        sim, net = make_flit_network(ring4, ring4_tables, message_bytes=32)
        pkt = net.send(0, 2)
        sim.run_until_idle()
        assert pkt.delivered_ps == flit_zero_load_delivery_ps(1, 32)

    def test_packet_engine_matches_within_one_flit_cycle(
            self, ring4, ring4_tables):
        """At zero load the two engines differ by exactly the tail
        fence-post (one flit cycle)."""
        from tests.test_network import zero_load_delivery_ps
        for hops, dst in ((1, 2), (2, 4)):
            sim, net = make_flit_network(ring4, ring4_tables)
            pkt = net.send(0, dst)
            sim.run_until_idle()
            assert (zero_load_delivery_ps(hops, 512) - pkt.delivered_ps
                    == P.flit_cycle_ps)


class TestStopAndGo:
    def test_slack_buffers_never_overflow_under_overload(self, ring4,
                                                         ring4_tables):
        """The _RxBuffer raises if stop&go fails to pace senders; heavy
        load must not trigger it."""
        sim, net = make_flit_network(ring4, ring4_tables)
        for i in range(40):
            src, dst = i % 8, (i * 3 + 2) % 8
            if src == dst:
                dst = (dst + 1) % 8
            net.send(src, dst)
        sim.run_until_idle()  # would raise AssertionError on overflow
        assert net.delivered == 40

    def test_blocked_packet_backpressures_source(self, ring4,
                                                 ring4_tables):
        """Two long packets to the same destination: the loser of the
        delivery port must be paced by stop&go while it waits, and both
        must still be delivered in full."""
        sim, net = make_flit_network(ring4, ring4_tables,
                                     message_bytes=2048)
        pa = net.send(0, 5)
        pb = net.send(7, 5)
        sim.run_until_idle()
        assert pa.delivered and pb.delivered
        gap = abs(pa.delivered_ps - pb.delivered_ps)
        assert gap >= 2048 * P.flit_cycle_ps  # serialised on delivery


class TestInTransit:
    def test_itb_flows_end_to_end(self, ring4):
        """Force a 2-leg ITB route and verify flit-level forwarding."""
        from repro.routing.routes import make_route, path_hops
        from repro.routing.table import RoutingTables
        tables = compute_tables(ring4, "updown")
        via = ring4.hosts_at(1)[0]
        custom = dict(tables.routes)
        custom[(0, 2)] = (make_route([path_hops(ring4, (0, 1)),
                                      path_hops(ring4, (1, 2))], (via,)),)
        t = RoutingTables("itb", 0, tables.orientation, custom)
        sim, net = make_flit_network(ring4, t)
        pkt = net.send(0, 4)
        sim.run_until_idle()
        assert pkt.delivered
        assert pkt.num_itbs == 1
        # slower than a direct two-hop route by at least detect + DMA
        direct = flit_zero_load_delivery_ps(2, 512)
        assert pkt.delivered_ps >= direct + P.itb_detect_ps \
            + P.itb_dma_setup_ps

    def test_itb_counters_cleaned_up(self, ring4):
        from repro.routing.routes import make_route, path_hops
        from repro.routing.table import RoutingTables
        tables = compute_tables(ring4, "updown")
        via = ring4.hosts_at(1)[0]
        custom = dict(tables.routes)
        custom[(0, 2)] = (make_route([path_hops(ring4, (0, 1)),
                                      path_hops(ring4, (1, 2))], (via,)),)
        t = RoutingTables("itb", 0, tables.orientation, custom)
        sim, net = make_flit_network(ring4, t)
        net.send(0, 4)
        sim.run_until_idle()
        assert net._itb_rx == {}


class TestCrossEngineValidation:
    """The packet-level model must track the flit-level ground truth."""

    @pytest.mark.parametrize("rate", [0.005, 0.02])
    def test_latency_agreement_below_saturation(self, rate):
        results = {}
        for engine in ("packet", "flit"):
            cfg = small_config(injection_rate=rate, engine=engine,
                               warmup_ps=ns(60_000),
                               measure_ps=ns(300_000))
            results[engine] = run_simulation(cfg)
        pkt, flit = results["packet"], results["flit"]
        assert pkt.avg_latency_ns == pytest.approx(
            flit.avg_latency_ns, rel=0.05)
        assert pkt.accepted_flits_ns_switch == pytest.approx(
            flit.accepted_flits_ns_switch, rel=0.05)

    def test_packet_engine_pessimistic_near_saturation(self):
        """Ignoring slack absorption makes the fast model's latency an
        upper bound (within noise) when contention matters."""
        cfg = dict(injection_rate=0.05, warmup_ps=ns(60_000),
                   measure_ps=ns(300_000))
        pkt = run_simulation(small_config(engine="packet", **cfg))
        flit = run_simulation(small_config(engine="flit", **cfg))
        assert pkt.avg_latency_ns >= 0.95 * flit.avg_latency_ns

    def test_updown_agreement(self):
        for engine in ("packet", "flit"):
            pass
        cfg = dict(routing="updown", policy="sp", injection_rate=0.02,
                   warmup_ps=ns(60_000), measure_ps=ns(300_000))
        pkt = run_simulation(small_config(engine="packet", **cfg))
        flit = run_simulation(small_config(engine="flit", **cfg))
        assert pkt.avg_latency_ns == pytest.approx(
            flit.avg_latency_ns, rel=0.05)


class TestRunnerIntegration:
    def test_flit_engine_via_config(self):
        s = run_simulation(small_config(engine="flit",
                                        measure_ps=ns(100_000)))
        assert s.messages_delivered > 0

    def test_link_stats_supported(self):
        """The unified NetworkModel surface made ``collect_links`` work
        for the flit engine too (it used to raise)."""
        s = run_simulation(small_config(engine="flit",
                                        measure_ps=ns(100_000)),
                           collect_links=True)
        assert s.link_utilization is not None
        assert len(s.link_utilization.per_link) == 32  # 4x4 torus links
        assert max(s.link_utilization.per_link) > 0

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            small_config(engine="quantum").validate()
