"""Array-engine unit suite: invariants the batch engine pins on its
own, independent of the cross-engine parity tests.

* **stride invariance** -- the tick stride (callback path) and the
  simulator's other events (batch-sink path) chop the timeline but may
  never change a computed timestamp;
* **tick economy** -- a primed batch-sink run ticks only when something
  outside the engine can look, and every such observer (the watchdog
  too) catches the engine up first;
* **batch inject == event-driven send** -- a primed schedule is just
  the ``send()`` stream without the per-message heap events (both on
  spaced traffic, same-instant bursts and a dense stream);
* **capability honesty** -- declined capabilities raise instead of
  returning fabricated numbers;
* **one tick chain** -- a ``send()`` that preempts the pending tick
  does not fork the chain;
* **one heap entry per message** -- the auditor passes mid-drain, the
  batch sink and the callback path collect the same figures, and a
  ``send()``'s packet is stamped on the batch-sink path too;
* **schedule memoisation** -- the runner's cross-run schedule cache is
  observationally invisible, shared by every scheme of a sweep and
  bounded by the messages it holds.
"""

import random

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro import runner
from repro.experiments.profiles import PAPER
from repro.runner import clear_caches, run_simulation
from repro.experiments.sweep import sweep_rates
from repro.metrics.collector import LatencyCollector
from repro.routing.policies import make_policy
from repro.routing import compute_tables
from repro.sim import (ENGINES, PacketTracer, Simulator,
                       UnsupportedCapability, make_network)
from repro.sim.arrayengine import ArrayNetwork
from repro.sim.base import CAP_BATCH_DELIVERY, CAP_BATCH_INJECT
from repro.sim.faults import FaultPlan
from repro.topology import build_torus
from repro.units import ns

P = PAPER_PARAMS


@pytest.fixture(scope="module")
def graph():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def tables(graph):
    return compute_tables(graph, "itb")


def make_schedule(graph, count, spacing_ps, seed=11, jitter=True, burst=1):
    """``count`` (t, src, dst) entries in same-instant bursts
    ``spacing_ps`` apart: 1-3 messages at random when ``jitter``, else
    exactly ``burst``."""
    rng = random.Random(seed)
    n = graph.num_hosts
    sched, t = [], 0
    while len(sched) < count:
        t += spacing_ps
        size = rng.randrange(1, 4) if jitter else burst
        for _ in range(min(size, count - len(sched))):
            s, d = rng.randrange(n), rng.randrange(n)
            if s == d:
                d = (d + 1) % n
            sched.append((t, s, d))
    return sched


#: name -> (schedule builder, register per-packet delivery callbacks?).
#: ``bursts`` is 4 instants x 48 messages, most of them contending for
#: a channel; ``dense`` runs the batch-sink path (no callbacks:
#: deliveries bypass the work heap), the others the callback path.
SCHEDULES = {
    "spaced": (lambda g: make_schedule(g, 60, 40_000), True),
    "jittered": (lambda g: make_schedule(g, 50, 25_000, seed=17), True),
    "bursts": (lambda g: make_schedule(g, 192, 200_000, seed=5,
                                       jitter=False, burst=48), True),
    "dense": (lambda g: make_schedule(g, 120, 3_000, seed=23), False),
}


def run_primed(graph, tables, sched, collect=True):
    """Prime ``sched`` into a fresh array engine, run to idle, return
    the delivery records and the per-channel flit map."""
    sim = Simulator()
    net = make_network("array", sim, graph, tables, make_policy("rr"), P)
    out = []
    if collect:
        net.add_delivery_callback(
            lambda p: out.append((p.pid, p.injected_ps, p.delivered_ps,
                                  p.num_itbs)))
    net.prime_schedule(sched)
    sim.run_until(10 ** 13)
    net.finalize()
    links = {(c.src, c.dst, c.link_id): (c.flits, c.reserved_ps)
             for c in net.link_flit_counts()}
    return sorted(out), net.delivered, links


class TestCapabilities:
    def test_declared_capabilities(self):
        assert ENGINES.get("array").capabilities() == frozenset(
            {CAP_BATCH_INJECT, CAP_BATCH_DELIVERY})

    def test_declined_capabilities_raise(self, graph, tables):
        net = make_network("array", Simulator(), graph, tables,
                           make_policy("rr"), P)
        with pytest.raises(UnsupportedCapability, match="itb_pool"):
            net.itb_stats()
        with pytest.raises(UnsupportedCapability, match="trace"):
            net.tracer = PacketTracer()
        with pytest.raises(UnsupportedCapability,
                           match="reliable_delivery"):
            net.swap_tables(tables)
        with pytest.raises(UnsupportedCapability, match="dynamic_faults"):
            net.install_fault_plan(FaultPlan([]))

    def test_runner_rejects_capability_mismatch(self):
        cfg = SimConfig(engine="array", topology="torus",
                        topology_kwargs={"rows": 4, "cols": 4,
                                         "hosts_per_switch": 2},
                        routing="itb", policy="rr", traffic="uniform",
                        injection_rate=0.01, seed=3,
                        warmup_ps=ns(10_000), measure_ps=ns(30_000))
        with pytest.raises(UnsupportedCapability):
            run_simulation(cfg, fault_plan=FaultPlan([]))


class TestPrimeSchedule:
    def test_unsorted_schedule_rejected(self, graph, tables):
        net = make_network("array", Simulator(), graph, tables,
                           make_policy("rr"), P)
        with pytest.raises(ValueError, match="sorted"):
            net.prime_schedule([(2_000, 0, 1), (1_000, 2, 3)])

    def test_out_of_range_host_rejected(self, graph, tables):
        """A host id outside the fabric fails at prime time, naming the
        entry -- not later as a bare IndexError inside a drain."""
        net = make_network("array", Simulator(), graph, tables,
                           make_policy("rr"), P)
        n = graph.num_hosts
        for bad in ((2_000, 3, n + 67), (2_000, n, 1), (2_000, -1, 1)):
            with pytest.raises(ValueError, match="outside") as err:
                net.prime_schedule([(1_000, 0, 1), bad])
            assert str(bad) in str(err.value)
        assert net.generated == 0 and net.sim.pending_events == 0

    def test_entry_in_the_past_rejected(self, graph, tables):
        """An entry before ``sim.now`` would be admitted in the past
        (channels stamped busy earlier than now)."""
        sim = Simulator()
        net = make_network("array", sim, graph, tables,
                           make_policy("rr"), P)
        sim.run_until(5_000)
        with pytest.raises(ValueError, match=r"before the current time"):
            net.prime_schedule([(4_999, 0, 1), (6_000, 2, 3)])
        net.prime_schedule([(5_000, 0, 1), (6_000, 2, 3)])
        sim.run_until(10 ** 9)
        net.finalize()
        assert net.delivered == 2

    def test_columns_and_triples_are_the_same_schedule(self, graph,
                                                       tables):
        """A ``Schedule`` is read in place; an iterable of triples is
        converted once -- same run either way."""
        from repro.traffic import Schedule
        sched = make_schedule(graph, 40, 30_000)
        cols = Schedule.from_triples(iter(sched))
        assert len(cols) == len(sched) and list(cols) == sched
        assert (cols.t.typecode, cols.src.typecode,
                cols.dst.typecode) == ("q", "i", "i")
        assert run_primed(graph, tables, cols) == \
            run_primed(graph, tables, sched)
        with pytest.raises(ValueError, match="length"):
            Schedule(cols.t, cols.src[:-1], cols.dst)

    def test_double_prime_rejected(self, graph, tables):
        net = make_network("array", Simulator(), graph, tables,
                           make_policy("rr"), P)
        net.prime_schedule([(1_000, 0, 1)])
        with pytest.raises(RuntimeError, match="already pending"):
            net.prime_schedule([(2_000, 2, 3)])

    def test_empty_schedule_is_noop(self, graph, tables):
        sim = Simulator()
        net = make_network("array", sim, graph, tables,
                           make_policy("rr"), P)
        net.prime_schedule([])
        sim.run_until_idle()
        assert net.generated == net.delivered == 0


class TestStrideInvariance:
    def test_timestamps_independent_of_stride(self, graph, tables,
                                              monkeypatch):
        for name, (build, collect) in SCHEDULES.items():
            sched = build(graph)
            results = []
            for stride in (7_777, 250_000, 4_000_000, 10 ** 9):
                monkeypatch.setattr(ArrayNetwork, "STRIDE_PS", stride)
                results.append(run_primed(graph, tables, sched, collect))
            for other in results[1:]:
                assert other == results[0], name


#: the LatencyCollector figures a batch sink feeds
SINK_FIELDS = ("messages", "payload_flits", "sum_latency_ps",
               "sum_network_latency_ps", "max_latency_ps", "sum_itbs")


def run_sink(graph, tables, sched, noops=(), t_end=ns(20_000_000)):
    """Prime ``sched`` into an array engine feeding a batch sink under
    a watchdog, with a no-op simulator event at each time of ``noops``;
    return the sink's figures, ``delivered``, the per-channel flit map
    and the simulator's event count."""
    sim = Simulator()
    net = make_network("array", sim, graph, tables, make_policy("rr"), P)
    col = LatencyCollector()
    net.delivery_sink = col
    net.install_watchdog(ns(1_000_000))
    for t in noops:
        sim.at(t, lambda: None)
    net.prime_schedule(sched)
    sim.run_until(t_end)
    net.finalize()
    links = {(c.src, c.dst, c.link_id): (c.flits, c.reserved_ps)
             for c in net.link_flit_counts()}
    return ({f: getattr(col, f) for f in SINK_FIELDS}, net.delivered,
            links, sim.events)


class FineCadence(Simulator):
    """A simulator with a no-op event every 4 us: a batch-sink drain
    never covers more than that."""

    def __init__(self):
        super().__init__()
        self.after(ns(4_000), self._beat)

    def _beat(self):
        self.after(ns(4_000), self._beat)


class TestDrainCadence:
    def test_extra_simulator_events_change_nothing(self, graph, tables):
        """The batch-sink path drains at the simulator's next event;
        extra no-op events (some at schedule instants) only chop the
        timeline more finely."""
        rng = random.Random(3)
        for name, (build, _) in SCHEDULES.items():
            sched = build(graph)
            span = sched[-1][0] + ns(100)
            noops = sorted(rng.sample([t for t, _, _ in sched], 5)
                           + [rng.randrange(span) for _ in range(40)])
            plain = run_sink(graph, tables, sched)
            chopped = run_sink(graph, tables, sched, noops)
            assert chopped[:3] == plain[:3], name
            assert plain[1] == len(sched), name
            assert chopped[3] > plain[3], name

    def test_a_primed_run_ticks_only_at_observers(self):
        """A paper-scale 8x8 point: one tick at the first entry, one
        behind each watchdog check -- never one per stride."""
        cfg = SimConfig(engine="array", topology="torus",
                        topology_kwargs={"rows": 8, "cols": 8},
                        routing="itb", policy="rr", traffic="uniform",
                        injection_rate=0.04, seed=1,
                        warmup_ps=PAPER.warmup_ps,
                        measure_ps=PAPER.measure_ps)
        watchdog_ps = ns(1_240_000)     # the runner's default here
        for measure_ps in (PAPER.measure_ps, ns(3_000_000)):
            reports = []
            summary = run_simulation(
                cfg.with_overrides(measure_ps=measure_ps),
                watchdog_ps=watchdog_ps, perf=reports.append)
            assert summary.messages_delivered > 1000
            checks = (cfg.warmup_ps + measure_ps) // watchdog_ps
            ticks = reports[0].events - checks
            assert ticks <= checks + 3, (measure_ps, reports[0].events)


class TestWatchdogCatchUp:
    def test_long_warmup_does_not_trip_the_watchdog(self, monkeypatch):
        """A warm-up longer than the watchdog interval: the check runs
        before the engine's tick at the same instant, so it must catch
        the engine up first or it sees no delivery since the last
        drain and raises a false DeadlockError."""
        cfg = SimConfig(engine="array", topology="torus",
                        topology_kwargs={"rows": 4, "cols": 4,
                                         "hosts_per_switch": 2},
                        routing="itb", policy="rr", traffic="uniform",
                        injection_rate=0.02, seed=5,
                        warmup_ps=ns(3_000_000), measure_ps=ns(200_000))
        clear_caches()
        coarse = run_simulation(cfg, check_invariants=True)
        monkeypatch.setattr(runner, "Simulator", FineCadence)
        fine = run_simulation(cfg, check_invariants=True)
        assert coarse == fine
        assert coarse.messages_delivered > 50


class TestBatchInjectExactness:
    def test_primed_schedule_equals_event_driven_send(self, graph,
                                                      tables):
        for name, (build, collect) in SCHEDULES.items():
            sched = build(graph)
            primed = run_primed(graph, tables, sched, collect)

            sim = Simulator()
            net = make_network("array", sim, graph, tables,
                               make_policy("rr"), P)
            out = []
            if collect:
                net.add_delivery_callback(
                    lambda p: out.append((p.pid, p.injected_ps,
                                          p.delivered_ps, p.num_itbs)))
            for (t, s, d) in sched:
                sim.at(t, lambda s=s, d=d: net.send(s, d))
            sim.run_until_idle()
            net.finalize()
            links = {(c.src, c.dst, c.link_id): (c.flits, c.reserved_ps)
                     for c in net.link_flit_counts()}
            assert (sorted(out), net.delivered, links) == primed, name
            assert net.delivered == len(sched), name


class TestUncontendedBitIdentity:
    def test_matches_packet_engine_when_uncontended(self, graph,
                                                    tables):
        """Widely spaced single packets: both wormhole regimes collapse
        to the same closed form, so timestamps agree bit for bit
        (compare ``pkt.delivered_ps`` -- the array engine's callbacks
        fire at tick time, its packet timestamps are exact)."""
        sched = make_schedule(graph, 12, 20_000_000, seed=29,
                              jitter=False)
        results = {}
        for name in ("packet", "array"):
            sim = Simulator()
            net = make_network(name, sim, graph, tables,
                               make_policy("rr"), P)
            out = []
            net.add_delivery_callback(
                lambda p: out.append((p.pid, p.injected_ps,
                                      p.delivered_ps, p.num_itbs)))
            if name == "array":
                net.prime_schedule(sched)
                sim.run_until(10 ** 13)
                net.finalize()
            else:
                for (t, s, d) in sched:
                    sim.at(t, lambda s=s, d=d: net.send(s, d))
                sim.run_until_idle()
            results[name] = sorted(out)
        assert results["array"] == results["packet"]
        assert len(results["array"]) == len(sched)


class TestScheduleMemoisation:
    CFG = dict(engine="array", topology="torus",
               topology_kwargs={"rows": 4, "cols": 4,
                                "hosts_per_switch": 2},
               routing="itb", policy="rr", traffic="uniform",
               injection_rate=0.02, seed=7,
               warmup_ps=ns(20_000), measure_ps=ns(60_000))

    def test_cache_hit_is_invisible(self):
        clear_caches()
        cold = run_simulation(SimConfig(**self.CFG))
        warm = run_simulation(SimConfig(**self.CFG))  # schedule-cache hit
        assert warm == cold
        clear_caches()
        fresh = run_simulation(SimConfig(**self.CFG))
        assert fresh == cold

    def test_cache_shared_across_engines(self):
        """The memo key excludes the engine: a packet run after an
        array run reuses the workload (paired comparisons), without
        changing either result."""
        clear_caches()
        pkt_cold = run_simulation(SimConfig(**{**self.CFG,
                                               "engine": "packet"}))
        run_simulation(SimConfig(**self.CFG))
        pkt_warm = run_simulation(SimConfig(**{**self.CFG,
                                               "engine": "packet"}))
        assert pkt_warm == pkt_cold

    def test_adopt_schedule_guards(self, graph, tables):
        from repro.traffic import TrafficProcess, per_host_interval_ps
        from repro.traffic.registry import make_workload

        def fresh():
            sim = Simulator()
            net = make_network("array", sim, graph, tables,
                               make_policy("rr"), P)
            interval = per_host_interval_ps(0.02, 512, graph)
            pattern, arrivals = make_workload(graph, "uniform", {},
                                              "constant", {}, interval)
            return TrafficProcess(sim, net, pattern, arrivals, seed=1)

        tr = fresh()
        sched = tr.pregenerate(ns(30_000))
        with pytest.raises(RuntimeError, match="already started"):
            tr.adopt_schedule(sched)
        tr2 = fresh()
        tr2.adopt_schedule(sched)
        assert tr2.generated == len(sched)


class TestScheduleSharing:
    """A figure draws its traffic once: the memo key has no routing
    scheme, policy or engine in it, and it is bounded by messages held,
    so every scheme after the first of a curve adopts."""

    RATES = tuple(round(0.004 + 0.002 * i, 3) for i in range(10))

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.traffic import TrafficProcess
        counts = {"pregenerate": 0, "adopt_schedule": 0, "replay": 0}
        for name in counts:
            real = getattr(TrafficProcess, name)

            def counted(self, *args, _real=real, _name=name):
                counts[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(TrafficProcess, name, counted)
        return counts

    def test_three_schemes_share_a_ten_rate_grid(self, calls):
        clear_caches()
        base = SimConfig(**TestScheduleMemoisation.CFG)
        for routing, policy in (("updown", "sp"), ("itb", "sp"),
                                ("itb", "rr")):
            sweep = sweep_rates(
                base.with_overrides(routing=routing, policy=policy),
                self.RATES, stop_after_saturation=len(self.RATES))
            assert len(sweep.runs) == len(self.RATES)
        assert calls == {"pregenerate": 10, "adopt_schedule": 20,
                         "replay": 0}
        assert len(runner._SCHEDULE_CACHE) == 10

    def test_packet_engine_replays_the_shared_schedules(self, calls):
        """The packet engine's twin: every run replays the memo, so a
        panel draws its traffic once, not once per scheme -- 10 draws,
        20 memo hits -- and the replay is the run start() would drive."""
        clear_caches()
        base = SimConfig(**{**TestScheduleMemoisation.CFG,
                            "engine": "packet"})
        for routing, policy in (("updown", "sp"), ("itb", "sp"),
                                ("itb", "rr")):
            sweep = sweep_rates(
                base.with_overrides(routing=routing, policy=policy),
                self.RATES, stop_after_saturation=len(self.RATES))
            assert len(sweep.runs) == len(self.RATES)
        assert calls == {"pregenerate": 10, "adopt_schedule": 0,
                         "replay": 30}
        assert len(runner._SCHEDULE_CACHE) == 10

    def test_memo_is_bounded_by_messages_held(self, calls, monkeypatch):
        clear_caches()
        base = SimConfig(**TestScheduleMemoisation.CFG)
        run_simulation(base.with_overrides(injection_rate=self.RATES[-1]))
        (largest,) = runner._SCHEDULE_CACHE.values()
        bound = 2 * len(largest) + len(largest) // 2
        monkeypatch.setattr(runner, "_SCHEDULE_CACHE_MAX_MESSAGES", bound)
        clear_caches()
        for rate in self.RATES:
            run_simulation(base.with_overrides(injection_rate=rate))
            held = sum(map(len, runner._SCHEDULE_CACHE.values()))
            assert 0 < held <= bound
        # oldest went first: the highest rates are the ones still held
        assert 1 < len(runner._SCHEDULE_CACHE) < len(self.RATES)
        run_simulation(base.with_overrides(injection_rate=self.RATES[-1]))
        assert calls["adopt_schedule"] == 1
        # a schedule that alone exceeds the bound is simply not kept
        monkeypatch.setattr(runner, "_SCHEDULE_CACHE_MAX_MESSAGES",
                            len(largest) - 1)
        clear_caches()
        cold = run_simulation(base.with_overrides(
            injection_rate=self.RATES[-1]))
        assert not runner._SCHEDULE_CACHE
        assert cold == run_simulation(base.with_overrides(
            injection_rate=self.RATES[-1]))


class TestTickChain:
    def test_superseded_ticks_do_not_rearm(self, graph, tables,
                                           monkeypatch):
        """A send() landing before the pending tick arms an earlier
        one; the superseded tick must not re-arm a second chain.  One
        chain ticks at most once per stride over the span, plus once
        per send that preempted it."""
        calls = []
        real = ArrayNetwork._tick

        def counted(self):
            calls.append(self.sim.now)
            real(self)
        monkeypatch.setattr(ArrayNetwork, "_tick", counted)
        sched = make_schedule(graph, 120, 3_000_000, seed=23)
        sim = Simulator()
        net = make_network("array", sim, graph, tables, make_policy("rr"),
                           P)
        for (t, s, d) in sched:
            sim.at(t, lambda s=s, d=d: net.send(s, d))
        sim.run_until_idle()
        net.finalize()
        assert net.delivered == len(sched)
        span = max(calls) - min(calls)
        assert len(calls) <= span // ArrayNetwork.STRIDE_PS + 1 + len(sched)


class TestOneEntryPerMessage:
    def test_audit_passes_inside_delivery_callback(self, graph, tables):
        """``audit`` run from a delivery callback, mid-drain, sees exact
        counters and every in-flight message in exactly one heap entry
        -- also while the callback itself send()s replies."""
        from repro.sim.invariants import audit
        for name, (build, _) in SCHEDULES.items():
            sched = build(graph)
            sim = Simulator()
            net = make_network("array", sim, graph, tables,
                               make_policy("rr"), P)
            reports, pids = [], []

            def on_delivery(p):
                pids.append(p.pid)
                reports.append(audit(net))
                if len(pids) <= 20:
                    net.send(p.dst_host, p.src_host)
            net.add_delivery_callback(on_delivery)
            net.prime_schedule(sched)
            sim.run_until(10 ** 13)
            net.finalize()
            assert net.generated == len(sched) + 20, name
            assert sorted(pids) == list(range(net.generated)), name
            for report in reports:
                report.raise_if_failed()
            audit(net, drained=True).raise_if_failed()

    def test_sink_and_callback_paths_collect_the_same(self, graph,
                                                      tables):
        for name in ("dense", "bursts"):
            sched = SCHEDULES[name][0](graph)
            seen = []
            for batch in (True, False):
                sim = Simulator()
                net = make_network("array", sim, graph, tables,
                                   make_policy("rr"), P)
                col = LatencyCollector()
                if batch:
                    net.delivery_sink = col
                else:
                    net.add_delivery_callback(col.on_delivered)
                net.prime_schedule(sched)
                sim.run_until(10 ** 13)
                net.finalize()
                seen.append({f: getattr(col, f) for f in SINK_FIELDS})
            assert seen[0] == seen[1], name
            assert seen[0]["messages"] == len(sched), name

    def test_reserved_time_is_flits_times_flit_cycle(self, graph, tables):
        for name, (build, collect) in SCHEDULES.items():
            _, _, links = run_primed(graph, tables, build(graph), collect)
            assert any(flits for flits, _ in links.values()), name
            for flits, reserved in links.values():
                assert reserved == flits * P.flit_cycle_ps, name

    def test_send_packets_are_stamped_on_the_sink_path(self, graph,
                                                       tables):
        """With a batch sink and no callbacks, a ``send()``'s packet
        still gets its injection and delivery stamps, and the sink sees
        each delivery once.  The bursts leave long drains, so re-injected
        legs deliver inside the drain that walks them."""
        sched = SCHEDULES["bursts"][0](graph)
        sim = Simulator()
        net = make_network("array", sim, graph, tables, make_policy("rr"),
                           P)
        col = LatencyCollector()
        net.delivery_sink = col
        pkts = []
        for (t, s, d) in sched:
            sim.at(t, lambda s=s, d=d: pkts.append(net.send(s, d)))
        sim.run_until_idle()
        net.finalize()
        assert len(pkts) == net.delivered == col.messages == len(sched)
        assert any(p.num_itbs for p in pkts)
        for p in pkts:
            assert p.created_ps <= p.injected_ps < p.delivered_ps, p.pid
        assert col.sum_latency_ps == sum(p.delivered_ps - p.created_ps
                                         for p in pkts)
        assert col.sum_network_latency_ps == sum(
            p.delivered_ps - p.injected_ps for p in pkts)
