"""Engine-parity suite: every registered engine behind the one
:class:`~repro.sim.base.NetworkModel` interface must agree.

The packet-level engine's "tail wave" approximation affects *when*
channels are released, never *what* crosses them, so a fully drained
workload must produce bit-identical message, route and per-link flit
accounting in both engines; windowed runs may differ only by packets
straddling the measurement boundary (at most one wire-length of flits
per boundary packet per link, on top of the documented slack-buffer
timing skew).
"""

from collections import Counter
import random

import pytest

from repro.config import PAPER_PARAMS
from repro.runner import run_simulation
from repro.routing.policies import make_policy
from repro.routing.routes import RouteLeg, SourceRoute, route_links
from repro.routing import RoutingTables, compute_tables
from repro.sim import (CAP_DYNAMIC_FAULTS, CAP_ITB_POOL,
                       CAP_RELIABLE_DELIVERY, CAP_TRACE, ENGINES,
                       PacketTracer, Simulator, UnsupportedCapability,
                       make_network, register)
from repro.topology import build_mutated, build_torus
from repro.traffic import TrafficProcess, per_host_interval_ps
from repro.traffic.registry import make_workload
from repro.topology.validate import check_topology
from repro.units import ns
from tests.conftest import BareNetwork, small_config

P = PAPER_PARAMS

EVENT_ENGINES = ("packet", "flit")


def make_engine(name, graph, tables, seed=3, message_bytes=512):
    sim = Simulator()
    net = make_network(name, sim, graph, tables,
                       make_policy("rr", seed=seed), P,
                       message_bytes=message_bytes)
    return sim, net


def drained_batch(name, graph, tables, pairs):
    """Send ``pairs`` at t=0 through engine ``name`` and drain."""
    sim, net = make_engine(name, graph, tables)
    pkts = [net.send(src, dst) for src, dst in pairs]
    sim.run_until_idle()
    return net, pkts


@pytest.fixture(scope="module")
def torus44_graph():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def torus44_itb_tables(torus44_graph):
    return compute_tables(torus44_graph, "itb")


@pytest.fixture(scope="module")
def traffic_pairs(torus44_graph):
    rng = random.Random(42)
    n = torus44_graph.num_hosts
    pairs = []
    while len(pairs) < 30:
        src, dst = rng.randrange(n), rng.randrange(n)
        if src != dst:
            pairs.append((src, dst))
    return pairs


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(EVENT_ENGINES) <= set(ENGINES.names())

    def test_full_capability_matrix(self):
        for name in EVENT_ENGINES:
            assert ENGINES.get(name).capabilities() == frozenset(
                {CAP_ITB_POOL, CAP_TRACE, CAP_DYNAMIC_FAULTS,
                 CAP_RELIABLE_DELIVERY})

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.get("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("packet")(ENGINES.get("packet"))

    def test_non_model_registration_rejected(self):
        with pytest.raises(TypeError):
            register("bogus")(dict)

    def test_third_engine_registration_roundtrip(self):
        @register("null")
        class NullNetwork(BareNetwork):
            pass

        try:
            assert "null" in ENGINES.names()
            # config validation picks the new engine up with no changes
            small_config(engine="null").validate()
        finally:
            ENGINES.unregister("null")
        assert "null" not in ENGINES.names()
        with pytest.raises(ValueError):
            small_config(engine="null").validate()
        assert "packet" in ENGINES  # built-ins untouched


class TestCapabilityGating:
    def _capless(self, torus44_graph, torus44_itb_tables):
        return BareNetwork(Simulator(), torus44_graph, torus44_itb_tables,
                           make_policy("sp"), P)

    def test_missing_capabilities_raise(self, torus44_graph,
                                        torus44_itb_tables):
        net = self._capless(torus44_graph, torus44_itb_tables)
        with pytest.raises(UnsupportedCapability, match="itb_pool"):
            net.itb_stats()
        with pytest.raises(UnsupportedCapability, match="trace"):
            net.tracer = PacketTracer()

    def test_detaching_tracer_always_allowed(self, torus44_graph,
                                             torus44_itb_tables):
        net = self._capless(torus44_graph, torus44_itb_tables)
        net.tracer = None  # no capability needed to clear


class TestDrainedParity:
    """Same workload, fully drained: accounting must be identical."""

    def test_counts_routes_and_link_flits_identical(
            self, torus44_graph, torus44_itb_tables, traffic_pairs):
        results = {}
        for name in EVENT_ENGINES:
            net, pkts = drained_batch(name, torus44_graph,
                                      torus44_itb_tables, traffic_pairs)
            assert net.generated == len(traffic_pairs)
            assert net.delivered == len(traffic_pairs)
            assert net.in_flight == 0
            results[name] = {
                "itb_hist": Counter(p.num_itbs for p in pkts),
                "links": {(c.src, c.dst, c.link_id): c.flits
                          for c in net.link_flit_counts()},
                "itb": net.itb_stats(),
            }
        pkt, flit = results["packet"], results["flit"]
        assert pkt["itb_hist"] == flit["itb_hist"]
        assert sum(pkt["itb_hist"].values()) == len(traffic_pairs)
        # the tail-wave approximation shifts timing, never flit counts:
        # a drained run agrees link by link, exactly
        assert pkt["links"] == flit["links"]
        assert sum(pkt["links"].values()) > 0
        # both pools processed the same in-transit packets
        assert pkt["itb"].packets == flit["itb"].packets > 0
        assert pkt["itb"].overflow_count == flit["itb"].overflow_count == 0

    def test_itb_pool_occupancy_tracked_in_both(self, torus44_graph,
                                                torus44_itb_tables,
                                                traffic_pairs):
        for name in EVENT_ENGINES:
            net, pkts = drained_batch(name, torus44_graph,
                                      torus44_itb_tables, traffic_pairs)
            if any(p.num_itbs for p in pkts):
                assert net.itb_stats().peak_bytes > 0

    def test_trace_event_sequences_identical(self, torus44_graph):
        """A forced 2-leg ITB route yields the same per-packet life
        cycle (inject, grants, eject, reinject, ..., deliver) in both
        engines, at the same nodes."""
        tables = compute_tables(torus44_graph, "updown")
        via = torus44_graph.hosts_at(1)[0]
        custom = dict(tables.routes)
        custom[(0, 2)] = (SourceRoute(
            (RouteLeg.from_switch_path(torus44_graph, (0, 1)),
             RouteLeg.from_switch_path(torus44_graph, (1, 2))), (via,)),)
        t = RoutingTables("itb", 0, tables.orientation, custom)
        sequences = {}
        for name in EVENT_ENGINES:
            sim, net = make_engine(name, torus44_graph, t)
            net.tracer = PacketTracer()
            pkt = net.send(0, 4)  # host on switch 2 -> crosses the ITB
            sim.run_until_idle()
            assert pkt.num_itbs == 1
            sequences[name] = [(e.event, e.node, e.leg)
                               for e in net.tracer.for_packet(pkt.pid)]
        assert sequences["packet"] == sequences["flit"]
        events = [e for e, _, _ in sequences["packet"]]
        assert events[0] == "inject"
        assert "eject" in events and "reinject" in events
        assert events[-1] == "deliver"


class TestWindowedParity:
    """run_simulation through the registry: both engines produce real
    link and ITB statistics from the same config."""

    @pytest.fixture(scope="class")
    def summaries(self):
        out = {}
        for name in EVENT_ENGINES:
            out[name] = run_simulation(
                small_config(engine=name, injection_rate=0.01,
                             warmup_ps=ns(20_000),
                             measure_ps=ns(100_000)),
                collect_links=True)
        return out

    def test_generation_identical(self, summaries):
        pkt, flit = summaries["packet"], summaries["flit"]
        assert pkt.messages_generated == flit.messages_generated

    def test_delivery_and_itb_load_agree(self, summaries):
        pkt, flit = summaries["packet"], summaries["flit"]
        assert pkt.messages_delivered == pytest.approx(
            flit.messages_delivered, abs=3)
        assert pkt.avg_itbs_per_message == pytest.approx(
            flit.avg_itbs_per_message, abs=0.25)

    def test_flit_itb_stats_are_real(self, summaries):
        """The runner used to hard-code itb_peak = 0 for the flit
        engine; the pool model now runs in both."""
        flit = summaries["flit"]
        if flit.avg_itbs_per_message:
            assert flit.itb_peak_bytes > 0
        assert flit.itb_peak_bytes <= P.itb_pool_bytes
        assert flit.itb_overflow_count == 0

    def test_link_stats_within_boundary_slack(self, summaries):
        """Drained runs agree exactly (TestDrainedParity); over a
        finite window the residual per directed channel is bounded by
        the packets straddling the window edges -- each contributes at
        most one wire length (~517 flits) -- plus the slack-buffer
        timing skew of the tail-wave approximation."""
        pkt = summaries["packet"].link_utilization
        flit = summaries["flit"].link_utilization
        assert pkt is not None and flit is not None
        assert len(pkt.utilization) == len(flit.utilization)
        window_ps = pkt.window_ps
        boundary_flits = 2 * (512 + 16)  # two boundary packets per channel
        atol = boundary_flits * P.flit_cycle_ps / window_ps
        assert max(abs(x - y) for x, y in
                   zip(pkt.utilization, flit.utilization)) <= atol
        # aggregate load (total flits moved) agrees much tighter
        assert sum(flit.utilization) == pytest.approx(
            sum(pkt.utilization), rel=0.10)

    def test_reserved_fraction_collected_for_both(self, summaries):
        for name in EVENT_ENGINES:
            u = summaries[name].link_utilization
            assert all(x >= 0 for x in u.reserved)
            assert max(u.reserved) > 0


class TestArrayEngineParity:
    """The array engine against the packet engine, within its declared
    capability envelope (no ITB-pool stats, no tracing): a drained
    workload must agree on every message and per-channel flit count;
    windowed runs may differ only by the documented contention slack."""

    def test_capability_matrix(self):
        from repro.sim import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT)
        assert ENGINES.get("array").capabilities() == frozenset(
            {CAP_BATCH_INJECT, CAP_BATCH_DELIVERY})

    def test_drained_counts_and_link_flits_identical(
            self, torus44_graph, torus44_itb_tables, traffic_pairs):
        results = {}
        for name in ("packet", "array"):
            net, pkts = drained_batch(name, torus44_graph,
                                      torus44_itb_tables, traffic_pairs)
            assert net.generated == len(traffic_pairs)
            assert net.delivered == len(traffic_pairs)
            assert net.in_flight == 0
            results[name] = {
                "itb_hist": Counter(p.num_itbs for p in pkts),
                "links": {(c.src, c.dst, c.link_id): c.flits
                          for c in net.link_flit_counts()},
            }
        assert results["packet"] == results["array"]
        assert sum(results["packet"]["links"].values()) > 0

    def test_drained_adversarial_volleys_identical(
            self, torus44_graph, torus44_itb_tables):
        """The (r, b)-adversary is the one registered workload whose
        hosts fire phase-aligned: every volley step is a same-instant
        admission burst from all 32 hosts.  Primed into the array
        engine and sent event-driven through the packet engine, the
        drained accounting must still agree."""
        g = torus44_graph
        interval = per_host_interval_ps(0.02, 512, g)
        pattern, arrivals = make_workload(g, "uniform", {},
                                          "adversarial", {}, interval)
        sched = TrafficProcess(Simulator(), None, pattern, arrivals,
                               seed=5).pregenerate(20 * interval)
        by_instant = Counter(t for t, _s, _d in sched)
        assert len(sched) > 500 and max(by_instant.values()) >= 16
        results = {}
        for name in ("packet", "array"):
            sim, net = make_engine(name, g, torus44_itb_tables)
            itbs = Counter()
            net.add_delivery_callback(
                lambda p: itbs.update([p.num_itbs]))
            if name == "array":
                net.prime_schedule(sched)
            else:
                for t, src, dst in sched:
                    sim.at(t, net.send, src, dst)
            sim.run_until_idle()
            net.finalize()
            assert net.generated == net.delivered == len(sched)
            assert net.in_flight == 0
            results[name] = {
                "itb_hist": itbs,
                "links": {(c.src, c.dst, c.link_id): c.flits
                          for c in net.link_flit_counts()},
            }
        assert results["packet"] == results["array"]

    def test_windowed_run_within_documented_slack(self):
        """Through the registry and runner: generation identical (the
        same pregenerated workload), delivery and ITB load within the
        greedy-reservation slack (DESIGN section 15) -- under light
        load the approximation barely bites."""
        out = {}
        for name in ("packet", "array"):
            out[name] = run_simulation(
                small_config(engine=name, injection_rate=0.01,
                             warmup_ps=ns(20_000),
                             measure_ps=ns(100_000)),
                collect_links=True)
        pkt, arr = out["packet"], out["array"]
        assert pkt.messages_generated == arr.messages_generated
        assert pkt.messages_delivered == pytest.approx(
            arr.messages_delivered, abs=3)
        assert pkt.avg_itbs_per_message == pytest.approx(
            arr.avg_itbs_per_message, abs=0.25)
        assert pkt.avg_latency_ns == pytest.approx(
            arr.avg_latency_ns, rel=0.10)
        # aggregate flit load agrees like the flit engine does
        assert sum(arr.link_utilization.utilization) == pytest.approx(
            sum(pkt.link_utilization.utilization), rel=0.10)


class TestMutatedTopologyParity:
    """Both engines agree on a *broken* fabric too: a torus minus two
    cables (rebuilt routing stack included) drains bit-identically."""

    @pytest.fixture(scope="class")
    def mutated(self):
        g = build_mutated("torus",
                          base_kwargs={"rows": 4, "cols": 4,
                                       "hosts_per_switch": 2},
                          failed_links=[3, 17])
        check_topology(g)  # every mutated graph passes the invariants
        return g, compute_tables(g, "itb")

    def test_array_engine_agrees_on_mutated_fabric(self, mutated,
                                                   traffic_pairs):
        """The 2-failed-link config from the parity matrix, on the
        array engine: identical drained accounting to the packet
        engine over the rebuilt (renumbered) routing stack."""
        g, tables = mutated
        results = {}
        for name in ("packet", "array"):
            net, pkts = drained_batch(name, g, tables, traffic_pairs)
            assert net.delivered == len(traffic_pairs)
            assert net.in_flight == 0
            results[name] = {
                "itb_hist": Counter(p.num_itbs for p in pkts),
                "links": {(c.src, c.dst, c.link_id): c.flits
                          for c in net.link_flit_counts()},
            }
        assert results["packet"] == results["array"]

    def test_drained_accounting_identical(self, mutated, traffic_pairs):
        g, tables = mutated
        results = {}
        for name in EVENT_ENGINES:
            net, pkts = drained_batch(name, g, tables, traffic_pairs)
            assert net.delivered == len(traffic_pairs)
            assert net.in_flight == 0
            results[name] = {
                "itb_hist": Counter(p.num_itbs for p in pkts),
                "links": {(c.src, c.dst, c.link_id): c.flits
                          for c in net.link_flit_counts()},
            }
        assert results["packet"] == results["flit"]
        # the removed cables (ids 3 and 17 of the *base* torus) exist
        # in neither engine's channel set
        base = build_torus(rows=4, cols=4, hosts_per_switch=2)
        removed = {(base.links[lid].a, base.links[lid].b)
                   for lid in (3, 17)}
        removed |= {(b, a) for a, b in removed}
        for src, dst, _lid in results["packet"]["links"]:
            assert (src, dst) not in removed

    def test_no_route_uses_failed_links(self, mutated):
        g, tables = mutated
        assert g.num_links == 30  # 32-cable torus minus two
        for alts in tables.routes.values():
            for route in alts:
                # link ids are renumbered: every id is in range, and the
                # endpoint pairs never include the removed cables' ends
                assert all(lid < g.num_links for lid in route_links(route))
