"""Dynamic mid-run fault injection (``CAP_DYNAMIC_FAULTS``).

The contract under test, for *both* engines: a link killed at
simulation time drops whatever it strands (counted, never delivered,
never hung), credits back every resource the victim held, and is
blacklisted for all future route selection.  A fault-free fabric must
behave bit-identically to a build without the capability wired in --
that part is covered by the golden-value and parity suites.
"""

from __future__ import annotations

import random

import pytest

from repro.config import PAPER_PARAMS
from repro.runner import run_simulation
from repro.routing.policies import make_policy
from repro.routing.routes import RouteLeg, SourceRoute, route_links
from repro.routing import RoutingTables, compute_tables
from repro.sim import (FaultPlan, LinkFault,
                       ReliableParams, ReliableTransport, Simulator,
                       UnsupportedCapability, make_network)
from repro.topology import build_torus
from repro.units import ns
from tests.conftest import BareNetwork, small_config

P = PAPER_PARAMS
ENGINES = ("packet", "flit")


def make_engine(name, graph, tables, seed=3, message_bytes=512):
    sim = Simulator()
    net = make_network(name, sim, graph, tables,
                       make_policy("rr", seed=seed), P,
                       message_bytes=message_bytes)
    return sim, net


def pool_occupancy(net):
    """Total in-transit pool bytes currently held, either engine."""
    pools = net.nics if hasattr(net, "nics") else net._itb_pools
    return sum(p.itb_bytes for p in pools)


@pytest.fixture(scope="module")
def torus44_graph():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def torus44_tables(torus44_graph):
    return compute_tables(torus44_graph, "itb")


class TestFaultPlan:
    def test_sorted_by_time(self):
        plan = FaultPlan.at((500, 3), (100, 7))
        assert [f.link_id for f in plan.faults] == [7, 3]

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match="fails twice"):
            FaultPlan.at((100, 3), (200, 3))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(-1, 0)
        with pytest.raises(ValueError):
            LinkFault(0, -1)

    def test_dict_roundtrip(self):
        plan = FaultPlan.at((100, 2), (300, 5))
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"faults": [], "bogus": 1})

    def test_truthiness(self):
        assert not FaultPlan(())
        assert FaultPlan.at((0, 0))


class TestCapabilityGating:
    def test_capless_engine_rejects_plan(self, torus44_graph,
                                         torus44_tables):
        net = BareNetwork(Simulator(), torus44_graph, torus44_tables,
                          make_policy("sp"), P)
        with pytest.raises(UnsupportedCapability, match="dynamic_faults"):
            net.install_fault_plan(FaultPlan.at((0, 0)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_range_link_rejected(self, engine, torus44_graph,
                                        torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        with pytest.raises(ValueError, match="has only"):
            net.install_fault_plan(
                FaultPlan.at((0, torus44_graph.num_links)))


class TestMidRunKill:
    """The acceptance scenario: a link dies under an in-flight packet.

    The kill fires at 400 ns -- after injection has begun but before
    the header of a 4-hop worm can have reached its leg-target NIC
    (>= 4 x 150 ns of routing alone), and long before the 512-byte
    tail has drained.  Both engines must drop the packet, release
    everything it held, and drain to idle without a watchdog trip.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_inflight_packet_dropped_not_hung(self, engine, torus44_graph,
                                              torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        src = torus44_graph.hosts_at(0)[0]
        dst = torus44_graph.hosts_at(10)[0]  # 4 switch-hops away
        pkt = net.send(src, dst)
        assert pkt is not None
        victim = route_links(pkt.route)[0]
        net.install_fault_plan(FaultPlan.at((ns(400), victim)))
        # a hang would leave the worm in flight past any plausible
        # drain horizon; the bound turns it into an assertion failure
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        assert net.generated == 1
        assert net.delivered == 0
        assert net.dropped == 1
        assert net.in_flight == 0
        assert not pkt.delivered
        assert pool_occupancy(net) == 0
        # the dead cable is blacklisted: every surviving alternative for
        # any pair avoids it
        pkt2 = net.send(src, dst)
        if pkt2 is not None:
            assert victim not in route_links(pkt2.route)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_waiters_on_dead_link_dropped(self, engine, torus44_graph):
        """Packets queued for (not yet owning) the dead channel drop
        too -- a single-route table forces the collision."""
        tables = compute_tables(torus44_graph, "updown",
                                max_routes_per_pair=1)
        sim, net = make_engine(engine, torus44_graph, tables)
        srcs = torus44_graph.hosts_at(0)
        dst = torus44_graph.hosts_at(10)[0]
        pkts = [net.send(s, dst) for s in srcs]
        assert all(p is not None for p in pkts)
        shared = set(route_links(pkts[0].route))
        for p in pkts[1:]:
            shared &= set(route_links(p.route))
        assert shared, "both worms must share a cable for the collision"
        net.install_fault_plan(FaultPlan.at((ns(400), min(shared))))
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        assert net.delivered + net.dropped == net.generated == len(pkts)
        assert net.dropped >= 1
        assert net.in_flight == 0
        assert pool_occupancy(net) == 0


class TestBlacklisting:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_severed_pair_refused_at_source(self, engine, torus44_graph):
        """A pair whose only route crosses the dead link is refused at
        the source and counted as dropped_unroutable."""
        base = compute_tables(torus44_graph, "updown")
        only = base.routes[(0, 2)][0]  # switch-pair key
        custom = dict(base.routes)
        custom[(0, 2)] = (only,)
        tables = RoutingTables("updown", 0, base.orientation, custom)
        sim, net = make_engine(engine, torus44_graph, tables)
        net.install_fault_plan(FaultPlan.at((0, route_links(only)[0])))
        sim.run_until_idle()  # fire the fault
        assert net.send(0, 4) is None
        assert net.generated == 1
        assert net.dropped == 1
        assert net.dropped_unroutable == 1
        assert net.in_flight == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_survivors_route_around(self, engine, torus44_graph,
                                    torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        net.install_fault_plan(FaultPlan.at((0, 0)))
        sim.run_until_idle()
        n = torus44_graph.num_hosts
        # route selection is checked for every pair; only a modest
        # batch is actually drained (an all-pairs burst of 992
        # simultaneous worms overwhelms the flit engine's NICs
        # regardless of faults)
        sent = 0
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                sel = net._select_route(src, dst)
                if sel is not None:
                    sent += 1
                    assert 0 not in route_links(sel[0])
        assert sent > 0
        for src, dst in [(0, 9), (3, 17), (8, 30), (12, 1), (21, 5)]:
            assert net.send(src, dst) is not None
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        assert net.in_flight == 0
        assert net.delivered == 5


class TestWindowedRuns:
    """run_simulation end to end with a fault plan."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_completes_with_drops(self, engine):
        cfg = small_config(engine=engine, injection_rate=0.02,
                           warmup_ps=ns(10_000), measure_ps=ns(60_000))
        plan = FaultPlan.at((ns(20_000), 0), (ns(30_000), 5))
        summary = run_simulation(cfg, fault_plan=plan)
        assert summary.messages_delivered > 0
        assert summary.messages_dropped >= 0
        total = run_simulation(cfg, fault_plan=plan)
        # determinism across repeat invocations
        assert total.to_dict() == summary.to_dict()

    def test_dict_plan_accepted(self):
        cfg = small_config(warmup_ps=ns(5_000), measure_ps=ns(20_000))
        plan = FaultPlan.at((ns(8_000), 3))
        a = run_simulation(cfg, fault_plan=plan)
        b = run_simulation(cfg, fault_plan=plan.to_dict())
        assert a.to_dict() == b.to_dict()

    def test_no_plan_unchanged(self):
        cfg = small_config()
        assert run_simulation(cfg).messages_dropped == 0


class TestMessageConservation:
    """Randomized ledger check: under arbitrary fault plans and send
    schedules, every message the reliable transport accepts is -- at
    drain -- exactly one of acknowledged or permanently lost, every
    delivery is either first-try or retransmit-recovered, and both
    engines agree that nothing leaks."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_message_accounted(self, engine, seed, torus44_graph,
                                     torus44_tables):
        rng = random.Random(seed)
        sim, net = make_engine(engine, torus44_graph, torus44_tables,
                               seed=seed)
        transport = ReliableTransport(
            net, ReliableParams(timeout_ps=ns(5_000), max_attempts=6))
        n_hosts = torus44_graph.num_hosts
        n_msgs = 30
        for _ in range(n_msgs):
            src = rng.randrange(n_hosts)
            dst = rng.randrange(n_hosts - 1)
            if dst >= src:
                dst += 1
            sim.at(rng.randrange(ns(30_000)), transport.send, src, dst)
        victims = rng.sample(range(torus44_graph.num_links), 3)
        net.install_fault_plan(FaultPlan.at(
            *[(rng.randrange(ns(1_000), ns(25_000)), link)
              for link in victims]))
        sim.run_until_idle(max_time_ps=ns(500_000_000))
        assert transport.messages == n_msgs
        assert transport.messages == \
            transport.acked + transport.permanent_losses
        assert transport.acked == transport.delivered
        assert transport.recovered <= transport.delivered
        assert transport.recovered <= transport.retransmissions
        assert transport.outstanding == 0
        assert net.in_flight == 0
        assert pool_occupancy(net) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engines_agree_on_outcome(self, seed, torus44_graph,
                                      torus44_tables):
        """Both engines must agree on the *outcome* ledger -- what was
        accepted, delivered, acknowledged and lost.  Retry effort
        (retransmissions, duplicates, recovered) legitimately differs:
        the packet engine's tail-wave timing approximation shifts when
        timeouts and drops interleave."""
        outcome = ("messages", "acked", "delivered", "permanent_losses")
        def ledger(engine):
            rng = random.Random(seed)
            sim, net = make_engine(engine, torus44_graph, torus44_tables,
                                   seed=seed)
            transport = ReliableTransport(
                net, ReliableParams(timeout_ps=ns(5_000), max_attempts=6))
            n_hosts = torus44_graph.num_hosts
            for _ in range(20):
                src = rng.randrange(n_hosts)
                dst = rng.randrange(n_hosts - 1)
                if dst >= src:
                    dst += 1
                sim.at(rng.randrange(ns(30_000)), transport.send,
                       src, dst)
            link = rng.randrange(torus44_graph.num_links)
            net.install_fault_plan(FaultPlan.at((ns(10_000), link)))
            sim.run_until_idle(max_time_ps=ns(500_000_000))
            stats = transport.stats()
            return {k: stats[k] for k in outcome}

        assert ledger("packet") == ledger("flit")


class TestItbLegDrop:
    """A worm dropped on a *second* leg releases its ITB reservation."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pool_credited_back(self, engine, torus44_graph):
        base = compute_tables(torus44_graph, "updown")
        via = torus44_graph.hosts_at(1)[0]
        forced = SourceRoute(
            (RouteLeg.from_switch_path(torus44_graph, (0, 1)),
             RouteLeg.from_switch_path(torus44_graph, (1, 2))), (via,))
        custom = dict(base.routes)
        custom[(0, 2)] = (forced,)  # switch-pair key; host 4 sits on sw 2
        tables = RoutingTables("itb", 0, base.orientation, custom)
        sim, net = make_engine(engine, torus44_graph, tables)
        pkt = net.send(0, 4)
        assert pkt is not None
        # kill the second leg's cable while the worm is still on leg 0
        # (header needs > 150 ns routing + injection DMA to clear it)
        net.install_fault_plan(
            FaultPlan.at((ns(400), forced.legs[1].links[0])))
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        assert net.delivered + net.dropped == 1
        assert net.in_flight == 0
        assert pool_occupancy(net) == 0
