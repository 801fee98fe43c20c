"""Packet event tracing."""

import pytest

from repro.config import PAPER_PARAMS
from repro.routing.policies import SinglePathPolicy
from repro.routing.routes import RouteLeg, SourceRoute, route_links
from repro.routing import RoutingTables, compute_tables
from repro.sim.engine import Simulator
from repro.sim.network import WormholeNetwork
from repro.sim.trace import PacketTracer, TraceEvent, format_trace
from repro.topology import build_torus


@pytest.fixture(scope="module")
def ring4():
    return build_torus(rows=1, cols=4, hosts_per_switch=2)


def traced_network(ring4, tables, tracer):
    sim = Simulator()
    net = WormholeNetwork(sim, ring4, tables, SinglePathPolicy(),
                          PAPER_PARAMS)
    net.tracer = tracer
    return sim, net


class TestTracerUnit:
    def test_record_and_filter(self):
        t = PacketTracer(pids=[1])
        t.record(10, "inject", 1, 0, 0)
        t.record(20, "inject", 2, 0, 0)  # filtered out
        assert len(t.events) == 1
        assert t.events[0] == TraceEvent(10, "inject", 1, 0, 0)
        assert t.events[0].time_ns == 0.01

    def test_trace_all_when_no_filter(self):
        t = PacketTracer()
        t.record(10, "inject", 1, 0, 0)
        t.record(20, "inject", 2, 0, 0)
        assert len(t.events) == 2

    def test_limit(self):
        t = PacketTracer(limit=2)
        for i in range(5):
            t.record(i, "grant", 0, 0, 0)
        assert len(t.events) == 2
        assert t.dropped == 3

    def test_unknown_event_rejected(self):
        t = PacketTracer()
        with pytest.raises(ValueError):
            t.record(0, "teleport", 0, 0, 0)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            PacketTracer(limit=0)

    def test_to_dicts(self):
        t = PacketTracer()
        t.record(5, "deliver", 3, 7, 1)
        assert t.to_dicts() == [{"time_ps": 5, "event": "deliver",
                                 "pid": 3, "node": 7, "leg": 1}]


class TestTracedSimulation:
    def test_single_leg_lifecycle(self, ring4):
        tables = compute_tables(ring4, "updown")
        tracer = PacketTracer()
        sim, net = traced_network(ring4, tables, tracer)
        pkt = net.send(0, 4)  # two hops on the ring
        sim.run_until_idle()
        events = [e.event for e in tracer.for_packet(pkt.pid)]
        # inject, one grant per switch traversed (incl. delivery port),
        # then deliver
        assert events[0] == "inject"
        assert events[-1] == "deliver"
        assert events.count("grant") == pkt.switch_hops + 1
        assert "eject" not in events

    def test_itb_lifecycle(self, ring4):
        tables = compute_tables(ring4, "updown")
        via = ring4.hosts_at(1)[0]
        custom = dict(tables.routes)
        custom[(0, 2)] = (SourceRoute(
            (RouteLeg.from_switch_path(ring4, (0, 1)),
             RouteLeg.from_switch_path(ring4, (1, 2))), (via,)),)
        t = RoutingTables("itb", 0, tables.orientation, custom)
        tracer = PacketTracer()
        sim, net = traced_network(ring4, t, tracer)
        pkt = net.send(0, 4)
        sim.run_until_idle()
        events = [e.event for e in tracer.for_packet(pkt.pid)]
        assert events.count("eject") == 1
        assert events.count("reinject") == 1
        assert events.index("eject") < events.index("reinject")
        # the eject is recorded at the in-transit host
        eject = [e for e in tracer.for_packet(pkt.pid)
                 if e.event == "eject"][0]
        assert eject.node == via
        assert eject.leg == 0

    def test_times_monotonic(self, ring4):
        tables = compute_tables(ring4, "updown")
        tracer = PacketTracer()
        sim, net = traced_network(ring4, tables, tracer)
        for i in range(6):
            net.send(i % 8, (i + 3) % 8)
        sim.run_until_idle()
        for pid in {e.pid for e in tracer.events}:
            times = [e.time_ps for e in tracer.for_packet(pid)]
            assert times == sorted(times)

    def test_hop_latencies(self, ring4):
        tables = compute_tables(ring4, "updown")
        tracer = PacketTracer()
        sim, net = traced_network(ring4, tables, tracer)
        pkt = net.send(0, 2)
        sim.run_until_idle()
        hops = tracer.hop_latencies_ns(pkt.pid)
        assert all(h >= 0 for h in hops)
        # final gap (last grant -> deliver) spans tail serialisation
        assert hops[-1] >= 512 * 6.25

    def test_format_trace(self, ring4):
        tables = compute_tables(ring4, "updown")
        tracer = PacketTracer()
        sim, net = traced_network(ring4, tables, tracer)
        pkt = net.send(0, 2)
        sim.run_until_idle()
        text = format_trace(tracer, pkt.pid)
        assert f"packet {pkt.pid}:" in text
        assert "inject" in text and "deliver" in text
        assert format_trace(tracer, 999) == "packet 999: no events recorded"

    def test_no_tracer_no_events(self, ring4):
        tables = compute_tables(ring4, "updown")
        sim, net = traced_network(ring4, tables, None)
        net.send(0, 2)
        sim.run_until_idle()  # must simply not crash

    def test_fault_events_traceable(self, ring4):
        """A traced run with a link death records the fault-time
        events (``link_down``, ``drop``) instead of rejecting them."""
        from repro.sim import FaultPlan
        from repro.units import ns
        tables = compute_tables(ring4, "itb")
        tracer = PacketTracer()
        sim, net = traced_network(ring4, tables, tracer)
        pkt = net.send(0, 4)
        net.install_fault_plan(FaultPlan.at((ns(400),
                                             route_links(pkt.route)[0])))
        sim.run_until_idle(max_time_ps=ns(10_000_000))
        events = {e.event for e in tracer.events}
        assert "link_down" in events
        assert "drop" in events
