"""Reliable delivery and online reconfiguration (``CAP_RELIABLE_DELIVERY``).

The contract under test, for *both* engines: with the GM-style
transport in front of a lossy fabric, every accepted message is either
acknowledged or counted as a permanent loss -- never silently gone --
and with online reconfiguration every pair that stays connected keeps
delivering after a mid-run link death.  The off-path guarantee (a run
*without* the transport stays bit-identical to PR 4) is covered by the
golden-value suite.
"""

from __future__ import annotations

import pytest

from repro.config import PAPER_PARAMS
from repro.runner import run_simulation
from repro.metrics.recovery import RecoveryTracker
from repro.routing.policies import make_policy
from repro.routing import RoutingTables, compute_tables
from repro.routing.routes import route_links
from repro.sim import (FaultPlan, MessageSequencer,
                       ReconfigParams, ReconfigurationManager,
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


@pytest.fixture(scope="module")
def torus44_graph():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def torus44_tables(torus44_graph):
    return compute_tables(torus44_graph, "itb")


def send_capturing_packet(transport, net, src, dst):
    """Send one message, returning ``(message, first attempt's packet)``."""
    captured = []
    original = net.send

    def wrapped(*args, **kwargs):
        pkt = original(*args, **kwargs)
        captured.append(pkt)
        return pkt

    net.send = wrapped
    try:
        msg = transport.send(src, dst)
    finally:
        del net.send  # restore the class's bound method
    return msg, captured[0]


class TestParams:
    def test_reliable_round_trip(self):
        p = ReliableParams(timeout_ps=ns(5_000), backoff=1.5,
                           max_attempts=7, failover_after=3,
                           ack_delay_ps=ns(50))
        assert ReliableParams.from_dict(p.to_dict()) == p

    def test_reconfig_round_trip(self):
        p = ReconfigParams(policy="blacklist",
                           detection_latency_ps=ns(1_000))
        assert ReconfigParams.from_dict(p.to_dict()) == p

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ReliableParams.from_dict({"timeout_ps": 1, "bogus": 2})
        with pytest.raises(ValueError, match="unknown"):
            ReconfigParams.from_dict({"bogus": 1})

    @pytest.mark.parametrize("bad", [
        dict(timeout_ps=0), dict(backoff=0.5), dict(max_attempts=0),
        dict(failover_after=-1), dict(ack_delay_ps=-1)])
    def test_reliable_validation(self, bad):
        with pytest.raises(ValueError):
            ReliableParams(**bad)

    @pytest.mark.parametrize("bad", [
        dict(policy="reroute"), dict(detection_latency_ps=-1)])
    def test_reconfig_validation(self, bad):
        with pytest.raises(ValueError):
            ReconfigParams(**bad)


class TestSequencer:
    def test_per_pair_sequences_independent(self):
        seq = MessageSequencer()
        assert seq.next_seq(0, 1) == 0
        assert seq.next_seq(0, 1) == 1
        assert seq.next_seq(0, 2) == 0
        assert seq.next_seq(1, 0) == 0

    def test_accept_exactly_once(self):
        seq = MessageSequencer()
        assert seq.accept(0, 1, 0) is True
        assert seq.accept(0, 1, 0) is False
        assert seq.accept(0, 1, 1) is True
        assert seq.accept(1, 0, 0) is True  # direction matters


class TestCapabilityGating:
    def _bare(self, torus44_graph, torus44_tables):
        return BareNetwork(Simulator(), torus44_graph, torus44_tables,
                           make_policy("sp"), P)

    def test_transport_requires_capability(self, torus44_graph,
                                           torus44_tables):
        net = self._bare(torus44_graph, torus44_tables)
        with pytest.raises(UnsupportedCapability, match="reliable"):
            ReliableTransport(net)

    def test_swap_tables_requires_capability(self, torus44_graph,
                                             torus44_tables):
        net = self._bare(torus44_graph, torus44_tables)
        with pytest.raises(UnsupportedCapability, match="reliable"):
            net.swap_tables(torus44_tables)

    def test_manager_requires_both(self, torus44_graph, torus44_tables):
        net = self._bare(torus44_graph, torus44_tables)
        with pytest.raises(UnsupportedCapability):
            ReconfigurationManager(net)


class TestFaultFreeTransport:
    """On a healthy fabric the transport is pure bookkeeping."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_message_first_try(self, engine, torus44_graph,
                                     torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        transport = ReliableTransport(net)
        pairs = [(0, 9), (3, 17), (8, 30), (12, 1), (21, 5)]
        for src, dst in pairs:
            transport.send(src, dst)
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        assert transport.messages == len(pairs)
        assert transport.acked == transport.delivered == len(pairs)
        assert transport.retransmissions == 0
        assert transport.recovered == 0
        assert transport.duplicates == 0
        assert transport.permanent_losses == 0
        assert transport.outstanding == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_message_callback_sees_each_once(self, engine, torus44_graph,
                                             torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        transport = ReliableTransport(net)
        seen = []
        transport.add_message_callback(lambda pkt: seen.append(pkt.pid))
        for src, dst in [(0, 9), (0, 9), (3, 17)]:
            transport.send(src, dst)
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        assert len(seen) == 3
        assert len(set(seen)) == 3


class TestRetransmission:
    """A link dies under a worm; the transport retries it home."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dropped_message_recovered(self, engine, torus44_graph,
                                       torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        transport = ReliableTransport(
            net, ReliableParams(timeout_ps=ns(5_000)))
        msg, pkt = send_capturing_packet(
            transport, net, torus44_graph.hosts_at(0)[0],
            torus44_graph.hosts_at(10)[0])
        assert msg.attempts == 1
        # kill the first cable of the live attempt's route
        net.install_fault_plan(FaultPlan.at((ns(400),
                                             route_links(pkt.route)[0])))
        sim.run_until_idle(max_time_ps=ns(50_000_000))
        assert msg.acked
        assert transport.delivered == 1
        assert transport.recovered == 1
        assert transport.retransmissions >= 1
        assert transport.permanent_losses == 0
        assert transport.outstanding == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_failover_forces_alternative(self, engine, torus44_graph,
                                         torus44_tables):
        """With ``failover_after=1`` the first failure already forces
        the next table alternative (blacklisting disabled, so only the
        failover steers around the dead cable)."""
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        net.blacklist_on_fault = False
        transport = ReliableTransport(
            net, ReliableParams(timeout_ps=ns(5_000), failover_after=1))
        msg, pkt = send_capturing_packet(
            transport, net, torus44_graph.hosts_at(0)[0],
            torus44_graph.hosts_at(10)[0])
        net.install_fault_plan(FaultPlan.at((ns(400),
                                             route_links(pkt.route)[0])))
        sim.run_until_idle(max_time_ps=ns(50_000_000))
        assert msg.acked
        assert msg.forced_index is not None
        assert transport.permanent_losses == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_severed_pair_is_permanent_loss(self, engine, torus44_graph):
        """One route, its cable dead before the send, blacklist on:
        every attempt is refused and the budget expires."""
        base = compute_tables(torus44_graph, "updown")
        only = base.routes[(0, 2)][0]
        custom = dict(base.routes)
        custom[(0, 2)] = (only,)
        tables = RoutingTables("updown", 0, base.orientation, custom)
        sim, net = make_engine(engine, torus44_graph, tables)
        transport = ReliableTransport(
            net, ReliableParams(timeout_ps=ns(1_000), max_attempts=3))
        net.install_fault_plan(FaultPlan.at((0, route_links(only)[0])))
        sim.run_until_idle()  # fire the fault
        msg = transport.send(0, 4)
        sim.run_until_idle(max_time_ps=ns(50_000_000))
        assert msg.failed
        assert transport.permanent_losses == 1
        assert transport.messages == transport.acked + \
            transport.permanent_losses


class TestHotSwap:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reconfigured_tables_avoid_dead_link(self, engine,
                                                 torus44_graph,
                                                 torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        ReliableTransport(net)
        manager = ReconfigurationManager(net)
        assert net.blacklist_on_fault is False
        net.install_fault_plan(FaultPlan.at((ns(400), 0)))
        sim.run_until_idle(max_time_ps=ns(50_000_000))
        assert manager.reconfigurations == 1
        assert not manager.fallback_blacklist
        # swapped tables still speak the original link-id space...
        net.tables.validate(torus44_graph)
        # ...and no route touches the dead cable
        for alts in net.tables.routes.values():
            for route in alts:
                assert 0 not in route_links(route)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_swap_covers_simultaneous_faults(self, engine,
                                                 torus44_graph,
                                                 torus44_tables):
        sim, net = make_engine(engine, torus44_graph, torus44_tables)
        ReliableTransport(net)
        manager = ReconfigurationManager(net)
        net.install_fault_plan(FaultPlan.at((ns(400), 0), (ns(400), 5)))
        sim.run_until_idle(max_time_ps=ns(50_000_000))
        # both detection events fire, but the dead set is identical by
        # the time either lands -- one recompute covers it
        assert manager.reconfigurations == 1

    def test_blacklist_policy_is_inert(self, torus44_graph,
                                       torus44_tables):
        sim, net = make_engine("packet", torus44_graph, torus44_tables)
        ReliableTransport(net)
        manager = ReconfigurationManager(
            net, ReconfigParams(policy="blacklist"))
        assert net.blacklist_on_fault is True
        net.install_fault_plan(FaultPlan.at((ns(400), 0)))
        sim.run_until_idle(max_time_ps=ns(50_000_000))
        assert manager.reconfigurations == 0


class TestAcceptance:
    """ISSUE acceptance: 4x4 torus, mid-run link death, reliability +
    reconfiguration on -- zero permanent losses, finite time-to-recover,
    and packet/flit parity on the message ledger."""

    PLAN = FaultPlan.at((ns(35_000), 29))

    def _run(self, engine):
        cfg = small_config(engine=engine, injection_rate=0.02, seed=7,
                           warmup_ps=ns(20_000), measure_ps=ns(60_000))
        return run_simulation(cfg, fault_plan=self.PLAN,
                              reliable=True, reconfig=True)

    def test_parity_and_recovery(self):
        packet = self._run("packet")
        flit = self._run("flit")
        for s in (packet, flit):
            assert s.permanent_losses == 0
            assert s.time_to_recover_ns is not None
            assert s.time_to_recover_ns > 0
            assert s.reconfigurations >= 1
            # the counters are window-scoped: a message generated just
            # before the measurement window opens can be delivered just
            # inside it -- allow that boundary drift, nothing else
            assert abs(s.messages_generated - s.messages_delivered) <= 1
        keys = ("messages_generated", "messages_delivered",
                "retransmissions", "duplicate_deliveries",
                "permanent_losses", "recovered_messages",
                "dropped_in_flight", "dropped_unroutable")
        pd, fd = packet.to_dict(), flit.to_dict()
        assert {k: pd[k] for k in keys} == {k: fd[k] for k in keys}

    def test_drop_split_sums_to_aggregate(self):
        s = self._run("packet")
        assert s.dropped_in_flight + s.dropped_unroutable == \
            s.messages_dropped


class TestRecoveryTracker:
    def test_recovers_after_dip(self):
        tracker = RecoveryTracker(window_ps=100)
        tracker.start(0)

        class Pkt:
            def __init__(self, t):
                self.delivered_ps = t
                self.payload_bytes = 10

        for t in (10, 110, 210, 310):       # steady 10 B/window
            tracker.on_delivered(Pkt(t))
        # fault at 400; windows 4..5 empty, traffic back in window 6
        for t in (610, 650, 710):
            tracker.on_delivered(Pkt(t))
        ttr = tracker.time_to_recover_ps(fault_ps=400, end_ps=800)
        assert ttr == 300  # window [600, 700) closes 300 ps after fault

    def test_none_without_baseline(self):
        tracker = RecoveryTracker(window_ps=100)
        tracker.start(0)
        assert tracker.time_to_recover_ps(fault_ps=50, end_ps=400) is None
