"""Packet-level wormhole network model: timing, contention, ITB
forwarding, deadlock detection."""

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.experiments.runner import run_simulation
from repro.routing.policies import SinglePathPolicy
from repro.routing.routes import RouteLeg, SourceRoute
from repro.routing import RoutingTables, compute_tables
from repro.routing.updown import orient_links
from repro.sim.engine import DeadlockError, Simulator
from repro.sim.network import WormholeNetwork
from repro.topology import build_torus
from repro.units import ns

P = PAPER_PARAMS


def make_network(g, tables, message_bytes=512):
    sim = Simulator()
    net = WormholeNetwork(sim, g, tables, SinglePathPolicy(), P,
                          message_bytes=message_bytes)
    return sim, net


@pytest.fixture(scope="module")
def ring4():
    """4-switch ring (1x4 torus), 2 hosts per switch."""
    return build_torus(rows=1, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def ring4_tables(ring4):
    return compute_tables(ring4, "updown")


def zero_load_delivery_ps(switch_hops, payload):
    """Hand-derived zero-contention delivery time for a single-leg route
    injected at t=0:

    inject grant at 0 -> head at first switch after one cable (prop);
    each of the (hops+1) switches adds routing + prop (the last one
    toward the NIC); the tail follows wire_bytes flit cycles behind.
    """
    wire = payload + P.header_type_bytes + switch_hops
    head = P.link_prop_ps + (switch_hops + 1) * (P.routing_delay_ps
                                                 + P.link_prop_ps)
    return head + wire * P.flit_cycle_ps


class TestSinglePacketTiming:
    def test_one_hop_delivery_time(self, ring4, ring4_tables):
        sim, net = make_network(ring4, ring4_tables)
        # host 0 on switch 0 -> host 2 on switch 1 (adjacent)
        pkt = net.send(0, 2)
        assert pkt.route.switch_hops == 1
        sim.run_until_idle()
        assert pkt.delivered
        assert pkt.injected_ps == 0
        assert pkt.delivered_ps == zero_load_delivery_ps(1, 512)

    def test_same_switch_delivery_time(self, ring4, ring4_tables):
        sim, net = make_network(ring4, ring4_tables)
        pkt = net.send(0, 1)  # both hosts on switch 0
        assert pkt.route.switch_hops == 0
        sim.run_until_idle()
        assert pkt.delivered_ps == zero_load_delivery_ps(0, 512)

    def test_message_size_scales_serialisation(self, ring4, ring4_tables):
        for size in (32, 512, 1024):
            sim, net = make_network(ring4, ring4_tables, message_bytes=size)
            pkt = net.send(0, 2)
            sim.run_until_idle()
            assert pkt.delivered_ps == zero_load_delivery_ps(1, size)

    def test_latency_accessors(self, ring4, ring4_tables):
        sim, net = make_network(ring4, ring4_tables)
        pkt = net.send(0, 2)
        sim.run_until_idle()
        assert pkt.latency_ps() == pkt.delivered_ps - pkt.created_ps
        assert pkt.network_latency_ps() == pkt.delivered_ps - pkt.injected_ps

    def test_send_to_self_rejected(self, ring4, ring4_tables):
        _, net = make_network(ring4, ring4_tables)
        with pytest.raises(ValueError):
            net.send(3, 3)


class TestContention:
    def test_source_nic_serialises(self, ring4, ring4_tables):
        """Two back-to-back messages from one host share the injection
        channel: the second cannot be injected until the first's tail
        has left the NIC."""
        sim, net = make_network(ring4, ring4_tables)
        p1 = net.send(0, 2)
        p2 = net.send(0, 2)
        sim.run_until_idle()
        assert p1.injected_ps == 0
        assert p2.injected_ps > p1.injected_ps
        assert p2.delivered_ps > p1.delivered_ps

    def test_delivery_channel_contention(self, ring4, ring4_tables):
        """Messages from different sources to one host serialise on the
        delivery channel."""
        sim, net = make_network(ring4, ring4_tables)
        pa = net.send(0, 5)  # switch 0 -> host on switch 2
        pb = net.send(7, 5)  # switch 3 -> same destination host
        sim.run_until_idle()
        assert pa.delivered and pb.delivered
        first, second = sorted((pa, pb), key=lambda p: p.delivered_ps)
        # the later delivery starts only after the earlier tail is done:
        # a full wire worth of flits separates the two tails
        assert (second.delivered_ps - first.delivered_ps
                >= 512 * P.flit_cycle_ps)

    def test_conservation(self, ring4, ring4_tables):
        sim, net = make_network(ring4, ring4_tables)
        for i in range(20):
            net.send(i % 8, (i + 3) % 8)
        sim.run_until_idle()
        assert net.generated == 20
        assert net.delivered == 20
        assert net.in_flight == 0


def itb_route(g, via_host):
    """Two-leg route 0 -> 2 with an in-transit stop at switch 1."""
    leg1 = RouteLeg.from_switch_path(g, (0, 1))
    leg2 = RouteLeg.from_switch_path(g, (1, 2))
    return SourceRoute((leg1, leg2), (via_host,))


class TestInTransitBuffers:
    def make_custom(self, ring4, route):
        tables = compute_tables(ring4, "updown")
        custom = dict(tables.routes)
        custom[(0, 2)] = (route,)
        t = RoutingTables("itb", 0, tables.orientation, custom)
        return make_network(ring4, t)

    def test_itb_adds_detection_and_dma_delay(self, ring4):
        via = ring4.hosts_at(1)[0]
        sim, net = self.make_custom(ring4, itb_route(ring4, via))
        pkt = net.send(0, 4)  # host 4 is on switch 2
        sim.run_until_idle()
        assert pkt.delivered
        assert pkt.num_itbs == 1
        # must be strictly slower than a direct 2-hop route by at least
        # the detection + DMA set-up time
        direct = zero_load_delivery_ps(2, 512)
        assert pkt.delivered_ps >= direct + P.itb_detect_ps + P.itb_dma_setup_ps

    def test_itb_nic_counts_packet(self, ring4):
        via = ring4.hosts_at(1)[0]
        sim, net = self.make_custom(ring4, itb_route(ring4, via))
        net.send(0, 4)
        sim.run_until_idle()
        nic = net.nics[via]
        assert nic.itb_packets == 1
        assert nic.itb_bytes == 0          # released after re-injection
        assert nic.itb_peak_bytes > 0
        assert nic.itb_overflows == 0

    def test_itb_pool_overflow_penalised(self, ring4):
        via = ring4.hosts_at(1)[0]
        tiny = P.with_overrides(itb_pool_bytes=100)  # < one packet
        tables = compute_tables(ring4, "updown")
        custom = dict(tables.routes)
        custom[(0, 2)] = (itb_route(ring4, via),)
        t = RoutingTables("itb", 0, tables.orientation, custom)
        sim = Simulator()
        net = WormholeNetwork(sim, ring4, t, SinglePathPolicy(), tiny,
                              message_bytes=512)
        pkt = net.send(0, 4)
        sim.run_until_idle()
        assert pkt.itb_overflows == 1
        assert net.nics[via].itb_overflows == 1

    def test_itb_shares_injection_channel_with_host(self, ring4):
        """An in-transit packet and the in-transit host's own message
        contend for the same injection channel."""
        via = ring4.hosts_at(1)[0]
        sim, net = self.make_custom(ring4, itb_route(ring4, via))
        transit = net.send(0, 4)
        own = net.send(via, 4)   # the ITB host sends its own message
        sim.run_until_idle()
        assert transit.delivered and own.delivered
        # both crossed the same injection channel; they cannot overlap
        assert abs(own.delivered_ps - transit.delivered_ps) \
            >= 512 * P.flit_cycle_ps


class TestDeadlock:
    def test_cyclic_routing_deadlocks_and_is_detected(self, ring4):
        """Minimal source routing *without* in-transit buffers on a ring
        has a cyclic channel dependency; the watchdog must turn the hang
        into a DeadlockError.  (This is the deadlock the ITB mechanism
        exists to break.)"""
        # all-clockwise routes: s -> d always via +1 steps
        ud = orient_links(ring4, 0)
        routes = {}
        n = ring4.num_switches
        for s in range(n):
            for d in range(n):
                path = [s]
                while path[-1] != d:
                    path.append((path[-1] + 1) % n)
                routes[(s, d)] = (SourceRoute.single_leg(ring4, tuple(path)),)
        t = RoutingTables("itb", 0, ud, routes)
        with pytest.raises(AssertionError,
                           match="channel dependency cycle"):
            t.validate(ring4)     # refused statically, too
        cfg = SimConfig(
            topology="torus",
            topology_kwargs={"rows": 1, "cols": 4, "hosts_per_switch": 2},
            routing="itb", traffic="uniform", injection_rate=0.5,
            warmup_ps=ns(500_000), measure_ps=ns(2_000_000), seed=3)
        with pytest.raises(DeadlockError):
            run_simulation(cfg, tables=t, watchdog_ps=ns(100_000))

    def test_itb_routing_does_not_deadlock_same_load(self):
        """The same offered load with proper ITB routes completes."""
        cfg = SimConfig(
            topology="torus",
            topology_kwargs={"rows": 1, "cols": 4, "hosts_per_switch": 2},
            routing="itb", policy="rr", traffic="uniform",
            injection_rate=0.5,
            warmup_ps=ns(500_000), measure_ps=ns(2_000_000), seed=3)
        summary = run_simulation(cfg, watchdog_ps=ns(100_000))
        assert summary.messages_delivered > 0
