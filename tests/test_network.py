"""Packet-level wormhole network model: timing, contention, ITB
forwarding, deadlock detection."""

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.runner import run_simulation
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
        assert pkt.switch_hops == 1
        sim.run_until_idle()
        assert pkt.delivered
        assert pkt.injected_ps == 0
        assert pkt.delivered_ps == zero_load_delivery_ps(1, 512)

    def test_same_switch_delivery_time(self, ring4, ring4_tables):
        sim, net = make_network(ring4, ring4_tables)
        pkt = net.send(0, 1)  # both hosts on switch 0
        assert pkt.switch_hops == 0
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


class TestDeferredReleases:
    """A release nobody waits for is recorded on its channel with the
    sequence number its event would have drawn, and settled before
    anyone reads or requests the channel.  Every observable must equal
    eager (one event per release) accounting."""

    # host 0 (switch 0) -> host 2 (switch 1): holds inj, NET 0->1, dlv
    HOPS = 1
    WIRE = 512 + P.header_type_bytes + HOPS
    TRANSFER = WIRE * P.flit_cycle_ps
    #: header at the destination NIC: inject, then two routed hops
    T_HEAD = P.link_prop_ps + 2 * (P.routing_delay_ps + P.link_prop_ps)
    T_TAIL = T_HEAD + TRANSFER
    #: the tail wave releases channel j of n one cable earlier per hop
    REL_INJ = T_TAIL - 2 * P.link_prop_ps
    REL_NET = T_TAIL - P.link_prop_ps
    GRANT_NET = P.link_prop_ps

    def test_hand_computed_release_times(self, ring4, ring4_tables):
        sim, net = make_network(ring4, ring4_tables)
        pkt = net.send(0, 2)
        inj = net.nics[0].inj
        sim.run_until(self.T_HEAD)
        rel, _seq, owner, wire, granted = inj.deferred
        assert (rel, owner, wire, granted) == (self.REL_INJ, pkt,
                                               self.WIRE, 0)
        assert inj.arbiter.owner is pkt          # not released yet
        sim.run_until_idle()
        assert pkt.delivered_ps == self.T_TAIL
        assert inj.deferred is not None          # nobody asked since

    @pytest.mark.parametrize("release_first", [True, False])
    def test_request_at_the_release_instant(self, ring4, ring4_tables,
                                            release_first):
        """A second packet from host 0 is sent at exactly the instant
        the first one's injection channel is released.  Whether the
        release's seq comes before or after the sending event decides
        whether the send finds the channel free or queues behind it --
        as with one event per release -- and either way the grant
        happens at that instant."""
        sim, net = make_network(ring4, ring4_tables)
        inj = net.nics[0].inj
        seen = {}

        def second_send():
            seen["pkt"] = net.send(0, 2)
            seen["owner"] = inj.arbiter.owner
            seen["waiting"] = inj.arbiter.waiting()

        first = net.send(0, 2)
        if release_first:
            # the tail wave (at T_HEAD) draws the release's seq first
            sim.run_until(self.T_HEAD)
            assert inj.deferred is not None
            sim.at(self.REL_INJ, second_send)
        else:
            sim.at(self.REL_INJ, second_send)
            sim.run_until(self.T_HEAD)
            assert inj.deferred is not None
            assert inj.deferred[1] > sim.heap[0][1]
        sim.run_until_idle()
        second = seen["pkt"]
        if release_first:
            assert (seen["owner"], seen["waiting"]) == (second, 0)
        else:
            assert (seen["owner"], seen["waiting"]) == (first, 1)
        assert second.injected_ps == self.REL_INJ
        assert second.delivered_ps == self.REL_INJ + self.T_TAIL

    @pytest.mark.parametrize("reset_at", [
        P.link_prop_ps // 2,                 # before the NET grant
        P.link_prop_ps + 1,                  # held, tail wave not yet
        T_HEAD + 1,                          # release deferred, future
        REL_NET,                             # release due at the reset
        REL_NET + 1])                        # release due, not settled
    def test_hold_straddling_the_warmup_reset(self, ring4, ring4_tables,
                                              reset_at):
        sim, net = make_network(ring4, ring4_tables)
        net.send(0, 2)
        sim.run_until(reset_at)
        net.reset_stats()
        sim.run_until_idle()
        # eager accounting: the hold is clamped to the reset and flits
        # stream at link rate up to the release
        if reset_at >= self.REL_NET:
            expected = (0, 0)
        elif reset_at <= self.GRANT_NET:
            expected = (self.WIRE, self.REL_NET - self.GRANT_NET)
        else:
            window = self.REL_NET - reset_at
            expected = (min(self.WIRE, window // P.flit_cycle_ps), window)
        counts = {(c.src, c.dst): (c.flits, c.reserved_ps)
                  for c in net.link_flit_counts()}
        assert counts.pop((0, 1)) == expected
        assert set(counts.values()) == {(0, 0)}

    def test_drained_audit_settles_every_channel(self, ring4, ring4_tables):
        from repro.sim.invariants import audit
        sim, net = make_network(ring4, ring4_tables)
        for i in range(20):
            net.send(i % 8, (i + 3) % 8)
        sim.run_until_idle()
        assert net.in_flight == 0 and sim.pending_events == 0
        assert any(ch.deferred is not None for ch in net.channels)
        audit(net, drained=True).raise_if_failed()
        assert all(ch.deferred is None and ch.arbiter.owner is None
                   for ch in net.channels)

    @pytest.mark.parametrize("kill_at", [T_HEAD + 1, REL_NET + 1])
    def test_kill_link_under_a_deferred_release(self, ring4, ring4_tables,
                                                kill_at):
        """The worm committed at its NIC before the cable died: it
        streams out and releases normally, whether its release is
        still ahead (kill_at before REL_NET) or already due."""
        from repro.sim import FaultPlan
        from repro.sim.invariants import audit
        sim, net = make_network(ring4, ring4_tables)
        pkt = net.send(0, 2)
        first_hop = pkt.route[2][0]
        net.install_fault_plan(FaultPlan.at((kill_at, first_hop >> 1)))
        sim.run_until(kill_at - 1)
        net_ch = net._net_by_dir[first_hop]
        assert net_ch.deferred is not None
        sim.run_until_idle()
        assert net.dropped == 0 and pkt.delivered_ps == self.T_TAIL
        assert net_ch.dead and net_ch.arbiter.owner is None
        counts = {(c.src, c.dst): (c.flits, c.reserved_ps)
                  for c in net.link_flit_counts()}
        assert counts[(0, 1)] == (self.WIRE, self.REL_NET - self.GRANT_NET)
        audit(net, drained=True).raise_if_failed()

    def test_stall_snapshot_names_only_live_owners(self, ring4):
        """The deadlocking ring: every owner the diagnosis names still
        holds its channel -- a worm still progressing, or a committed
        one whose release is not due yet."""
        from repro.routing.updown import orient_links
        from repro.traffic import TrafficProcess, make_workload
        n = ring4.num_switches
        routes = {}
        for s in range(n):
            for d in range(n):
                path = [s]
                while path[-1] != d:
                    path.append((path[-1] + 1) % n)
                routes[(s, d)] = (SourceRoute.single_leg(ring4, tuple(path)),)
        t = RoutingTables("itb", 0, orient_links(ring4, 0), routes)
        sim, net = make_network(ring4, t)
        pattern, arrivals = make_workload(ring4, "uniform", {}, "constant",
                                          {}, ns(200))
        TrafficProcess(sim, net, pattern, arrivals, seed=3).start()
        net.install_watchdog(ns(100_000))
        with pytest.raises(DeadlockError) as err:
            sim.run_until(ns(5_000_000))
        diagnosis = err.value.diagnosis
        assert diagnosis["wait_for_cycle"]
        pending = {args[0].cid: t_ps for t_ps, _s, fn, args in sim.heap
                   if getattr(fn, "__name__", "") == "_do_release"}
        by_name = {net._channel_name(ch): ch for ch in net.channels}
        for entry in diagnosis["channel_owners"]:
            ch = by_name[entry["channel"]]
            assert ch.deferred is None
            if entry["owner"] is None:
                continue
            tr = net._active.get(entry["owner"])
            if tr is not None and any(h[0] is ch for h in tr.holds):
                continue
            assert pending.get(ch.cid, -1) >= diagnosis["t_ps"], entry
