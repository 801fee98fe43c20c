"""Packet wire-length accounting, channel statistics, NIC pool."""

import pytest

from repro.config import PAPER_PARAMS
from repro.routing.routes import RouteLeg, SourceRoute
from repro.sim.channel import Channel, DEL, INJ, NET
from repro.sim.nic import Nic
from repro.sim.packet import Packet
from repro.topology import build_torus

P = PAPER_PARAMS


@pytest.fixture(scope="module")
def g():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


def two_leg_packet(g, payload=512):
    """0 ->(2 hops) 2 | itb | 2 ->(1 hop) 3 route, as a packet."""
    leg1 = RouteLeg.from_switch_path(g, (0, 1, 2))
    leg2 = RouteLeg.from_switch_path(g, (2, 3))
    via = g.hosts_at(2)[0]
    route = SourceRoute((leg1, leg2), (via,)).to_store()
    return Packet(0, g.hosts_at(0)[0], g.hosts_at(3)[0], payload, route,
                  created_ps=0, params=P)


class TestPacketWireBytes:
    def test_first_leg_carries_everything(self, g):
        pkt = two_leg_packet(g)
        # payload + type(2) + 3 route flits (2 + 1 hops) + 1 ITB mark
        assert pkt.wire_bytes(0) == 512 + 2 + 3 + 1

    def test_second_leg_stripped(self, g):
        pkt = two_leg_packet(g)
        # the in-transit host consumed leg-1 route flits and the mark
        assert pkt.wire_bytes(1) == 512 + 2 + 1

    def test_single_leg(self, g):
        route = SourceRoute.single_leg(g, (0, 1)).to_store()
        pkt = Packet(1, 0, 2, 100, route, 0, P)
        assert pkt.wire_bytes(0) == 100 + 2 + 1

    def test_num_properties(self, g):
        pkt = two_leg_packet(g)
        assert pkt.num_legs == 2
        assert pkt.num_itbs == 1

    def test_latency_before_delivery_raises(self, g):
        pkt = two_leg_packet(g)
        with pytest.raises(ValueError):
            pkt.latency_ps()
        with pytest.raises(ValueError):
            pkt.network_latency_ps()

    def test_latency_after_delivery(self, g):
        pkt = two_leg_packet(g)
        pkt.injected_ps = 100
        pkt.delivered_ps = 5_100
        assert pkt.latency_ps() == 5_100
        assert pkt.network_latency_ps() == 5_000


class TestChannel:
    def test_passage_accounting(self):
        ch = Channel(0, NET, 1, 2, link_id=7)
        ch.record_passage(flits=500, granted_ps=1_000, released_ps=11_000)
        ch.record_passage(flits=100, granted_ps=20_000, released_ps=22_000)
        assert ch.transfer_flits == 600
        assert ch.reserved_ps == 12_000

    def test_utilization(self):
        ch = Channel(0, NET, 1, 2)
        ch.record_passage(800, 0, 10_000)
        # 800 flits * 6250 ps over a 10_000_000 ps window
        assert ch.utilization(10_000_000, P.flit_cycle_ps) == \
            pytest.approx(0.5)
        assert ch.reserved_fraction(10_000_000) == pytest.approx(0.001)

    def test_reset(self):
        ch = Channel(0, INJ, 1, 2)
        ch.record_passage(10, 0, 100)
        ch.reset_stats()
        assert ch.transfer_flits == 0
        assert ch.reserved_ps == 0

    def test_kinds(self):
        assert Channel(0, INJ, 0, 0).kind == INJ
        assert Channel(1, DEL, 0, 0).kind == DEL
        assert Channel(2, NET, 0, 1, link_id=3).link_id == 3

    def test_boundary_straddling_hold_clamped_to_reset(self):
        """A packet granted before the stats reset but released inside
        the window only contributes its in-window hold, so
        ``reserved_fraction`` cannot exceed 1."""
        ch = Channel(0, NET, 1, 2)
        ch.record_passage(10, 0, 50_000)       # fully pre-window
        ch.reset_stats(100_000)                # warm-up ends at t=100us
        # granted during warm-up, released 40us into a 100us window
        ch.record_passage(515, granted_ps=20_000, released_ps=140_000)
        assert ch.reserved_ps == 40_000        # not 120_000
        assert ch.reserved_fraction(100_000) <= 1.0
        # a fully in-window passage is unaffected by the clamp
        ch.record_passage(515, granted_ps=150_000, released_ps=160_000)
        assert ch.reserved_ps == 50_000

    def test_boundary_straddling_flits_clamped_with_cycle(self):
        """With the flit cycle supplied (as the packet engine does),
        flits that crossed before the reset are excluded too, keeping
        utilisation <= reserved per channel."""
        ch = Channel(0, NET, 1, 2)
        ch.reset_stats(100_000)
        ch.record_passage(515, granted_ps=20_000, released_ps=140_000,
                          flit_cycle_ps=6_250)
        # flits stream at link rate up to the release: only the last
        # 40_000 ps of the passage are in-window -> 40_000 // 6250 = 6
        assert ch.transfer_flits == 6
        assert ch.reserved_ps == 40_000
        assert (ch.transfer_flits * 6_250) <= ch.reserved_ps
        # non-straddling passages keep their full flit count
        ch.record_passage(515, granted_ps=150_000, released_ps=160_000,
                          flit_cycle_ps=6_250)
        assert ch.transfer_flits == 6 + 515

    def test_boundary_straddling_run_reserved_fraction_bounded(self):
        """End to end on both engines: with a warm-up short enough that
        long holds straddle the boundary, no channel reports more
        reserved time than the measurement window."""
        from repro.config import SimConfig
        from repro.runner import run_simulation
        from repro.units import ns
        for engine in ("packet", "flit"):
            cfg = SimConfig(
                engine=engine, topology="torus",
                topology_kwargs={"rows": 4, "cols": 4,
                                 "hosts_per_switch": 2},
                routing="itb", policy="rr", traffic="uniform",
                injection_rate=0.12,          # saturated: very long holds
                warmup_ps=ns(20_000), measure_ps=ns(8_000))
            s = run_simulation(cfg, collect_links=True)
            assert s.link_utilization is not None
            assert max(s.link_utilization.reserved) <= 1.0


class TestNic:
    def make(self):
        inj = Channel(0, INJ, 5, 2)
        dlv = Channel(1, DEL, 2, 5)
        return Nic(5, 2, inj, dlv)

    def test_admit_within_pool(self):
        nic = self.make()
        assert nic.itb_admit(500, pool_bytes=1_000) is True
        assert nic.itb_bytes == 500
        assert nic.itb_peak_bytes == 500
        assert nic.itb_overflows == 0
        assert nic.itb_packets == 1

    def test_admit_overflow(self):
        nic = self.make()
        nic.itb_admit(800, pool_bytes=1_000)
        assert nic.itb_admit(500, pool_bytes=1_000) is False
        assert nic.itb_overflows == 1
        assert nic.itb_bytes == 1_300       # still tracked (host memory)
        assert nic.itb_peak_bytes == 1_300

    def test_release(self):
        nic = self.make()
        nic.itb_admit(500, 1_000)
        nic.itb_release(500)
        assert nic.itb_bytes == 0
        assert nic.itb_peak_bytes == 500    # peak survives release

    def test_negative_occupancy_caught(self):
        nic = self.make()
        with pytest.raises(AssertionError):
            nic.itb_release(1)

    def test_reset_preserves_occupancy(self):
        nic = self.make()
        nic.itb_admit(2_000, 1_000)     # overflowing packet in flight
        nic.reset_stats()
        assert nic.itb_bytes == 2_000   # state kept
        assert nic.itb_overflows == 0   # statistic cleared
        assert nic.itb_peak_bytes == 2_000
        assert nic.itb_packets == 0
