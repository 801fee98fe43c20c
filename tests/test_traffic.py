"""Traffic fabric: patterns, arrival processes, registry, driver.

Property suite over the full registry: every destination pattern is
checked for in-range / never-self destinations and determinism, every
arrival process for mean-rate preservation, and the driver for the
destination/arrival RNG separation that makes destination sequences
rate-invariant (the paired-comparison guarantee).
"""

import random
from collections import Counter, defaultdict

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.routing.policies import SinglePathPolicy
from repro.routing import compute_tables
from repro.sim.engine import Simulator
from repro.sim.network import WormholeNetwork
from repro.topology import build as build_topology, build_torus
from repro.traffic import make_pattern
from repro.traffic.arrivals import (AdversarialArrivals, ConstantArrivals,
                                    OnOffArrivals, PoissonArrivals)
from repro.traffic.base import TrafficProcess, per_host_interval_ps
from repro.traffic.bitreversal import BitReversalTraffic, reverse_bits
from repro.traffic.collective import IncastTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.local import LocalTraffic
from repro.traffic.permutation import ComplementTraffic, TransposeTraffic
from repro.traffic.registry import (ARRIVALS, PATTERNS, make_workload,
                                    parse_workload, validate_workload,
                                    workload_label)
from repro.traffic.uniform import UniformTraffic
from repro.units import PS_PER_NS


@pytest.fixture(scope="module")
def g():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)  # 32 hosts


class TestUniform:
    def test_never_self(self, g):
        pat = UniformTraffic(g)
        rng = random.Random(1)
        for _ in range(500):
            assert pat.destination(7, rng) != 7

    def test_all_destinations_reachable(self, g):
        pat = UniformTraffic(g)
        rng = random.Random(2)
        seen = {pat.destination(0, rng) for _ in range(5000)}
        assert seen == set(range(1, g.num_hosts))

    def test_roughly_uniform(self, g):
        pat = UniformTraffic(g)
        rng = random.Random(3)
        counts = Counter(pat.destination(5, rng) for _ in range(31_000))
        assert min(counts.values()) > 600  # E = 1000 per destination
        assert max(counts.values()) < 1400


class TestBitReversal:
    def test_reverse_bits(self):
        assert reverse_bits(0b00001, 5) == 0b10000
        assert reverse_bits(0b10110, 5) == 0b01101
        assert reverse_bits(0, 5) == 0
        with pytest.raises(ValueError):
            reverse_bits(32, 5)

    def test_fixed_permutation(self, g):
        pat = BitReversalTraffic(g)  # 32 hosts -> 5 bits
        rng = random.Random(1)
        assert pat.destination(1, rng) == 16
        assert pat.destination(16, rng) == 1

    def test_palindromes_inactive(self, g):
        pat = BitReversalTraffic(g)
        rng = random.Random(1)
        assert pat.destination(0, rng) is None       # 00000
        assert pat.destination(0b10001, rng) is None
        assert 0 not in pat.active_hosts()

    def test_active_host_count(self, g):
        # 5-bit palindromes: 2^3 = 8 of 32
        pat = BitReversalTraffic(g)
        assert len(pat.active_hosts()) == 32 - 8

    def test_non_power_of_two_rejected(self):
        g3 = build_torus(rows=1, cols=3, hosts_per_switch=1)
        with pytest.raises(ValueError):
            BitReversalTraffic(g3)

    def test_involution(self, g):
        pat = BitReversalTraffic(g)
        rng = random.Random(1)
        for h in pat.active_hosts():
            d = pat.destination(h, rng)
            assert pat.destination(d, rng) == h


class TestHotspot:
    def test_hotspot_share(self, g):
        pat = HotspotTraffic(g, hotspot=9, fraction=0.2)
        rng = random.Random(4)
        n = 20_000
        hits = sum(pat.destination(3, rng) == 9 for _ in range(n))
        # ~20% explicit hotspot picks plus ~1/31 uniform residue
        assert 0.18 < hits / n < 0.28

    def test_realized_fraction_matches_nominal(self, g):
        """The directed hot share of *all* traffic must equal the
        nominal fraction: the per-source probability is compensated by
        H/(H-1) because the hotspot host itself never directs traffic
        at the hotspot.  Sources generate at equal rates, so sampling
        cycles through every source."""
        frac = 0.2
        pat = HotspotTraffic(g, hotspot=9, fraction=frac)
        h = g.num_hosts
        assert pat.directed_fraction == pytest.approx(frac * h / (h - 1))
        rng = random.Random(11)
        n = 50_000
        hits = sum(pat.destination(i % h, rng) == 9 for i in range(n))
        expected = pat.realized_hot_fraction()
        # total-on-hotspot share: nominal directed fraction plus the
        # uniform spill; 4-sigma band on the binomial sample
        sigma = (expected * (1 - expected) / n) ** 0.5
        assert abs(hits / n - expected) < 4 * sigma
        # the realized share can no longer drift below nominal
        assert expected >= frac

    def test_unrealizable_fraction_rejected(self, g):
        # fraction so high that the compensated per-source probability
        # would exceed 1
        h = g.num_hosts
        with pytest.raises(ValueError, match="realizable"):
            HotspotTraffic(g, hotspot=0, fraction=(h - 1) / h + 0.001)

    def test_hotspot_host_sends_uniform(self, g):
        pat = HotspotTraffic(g, hotspot=9, fraction=0.5)
        rng = random.Random(5)
        for _ in range(200):
            assert pat.destination(9, rng) != 9

    def test_never_self(self, g):
        pat = HotspotTraffic(g, hotspot=9, fraction=0.3)
        rng = random.Random(6)
        for src in (0, 9, 31):
            for _ in range(200):
                assert pat.destination(src, rng) != src

    def test_param_validation(self, g):
        with pytest.raises(ValueError):
            HotspotTraffic(g, hotspot=99)
        with pytest.raises(ValueError):
            HotspotTraffic(g, hotspot=0, fraction=0.0)
        with pytest.raises(ValueError):
            HotspotTraffic(g, hotspot=0, fraction=1.0)


class TestLocal:
    def test_destinations_within_radius(self, g):
        pat = LocalTraffic(g, radius=2)
        rng = random.Random(7)
        for src in (0, 13, 31):
            src_sw = g.host_switch(src)
            dist = g.shortest_distances(src_sw)
            for _ in range(300):
                d = pat.destination(src, rng)
                assert d != src
                assert dist[g.host_switch(d)] <= 2

    def test_radius_zero_same_switch_only(self, g):
        pat = LocalTraffic(g, radius=0)
        rng = random.Random(8)
        for src in range(g.num_hosts):
            d = pat.destination(src, rng)
            assert g.host_switch(d) == g.host_switch(src)
            assert d != src

    def test_radius_covers_everything(self, g):
        pat = LocalTraffic(g, radius=99)
        rng = random.Random(9)
        seen = {pat.destination(0, rng) for _ in range(3000)}
        assert len(seen) == g.num_hosts - 1

    def test_negative_radius_rejected(self, g):
        with pytest.raises(ValueError):
            LocalTraffic(g, radius=-1)

    def test_radius_zero_single_host_per_switch_rejected(self):
        g1 = build_torus(rows=2, cols=2, hosts_per_switch=1)
        with pytest.raises(ValueError):
            LocalTraffic(g1, radius=0)


class TestPermutations:
    def test_complement(self, g):
        pat = ComplementTraffic(g)
        rng = random.Random(1)
        assert pat.destination(0, rng) == 31
        assert pat.destination(31, rng) == 0

    def test_transpose_involution(self):
        g16 = build_torus(rows=4, cols=4, hosts_per_switch=1)  # 16 hosts
        pat = TransposeTraffic(g16)
        rng = random.Random(1)
        for h in pat.active_hosts():
            assert pat.destination(pat.destination(h, rng), rng) == h

    def test_transpose_needs_even_width(self, g):
        with pytest.raises(ValueError):
            TransposeTraffic(g)  # 32 hosts -> 5 bits, odd


class TestMakePattern:
    def test_registry(self, g):
        assert make_pattern("uniform", g).name == "uniform"
        assert make_pattern("hotspot", g, hotspot=3).hotspot == 3
        with pytest.raises(ValueError):
            make_pattern("zipf", g)


class TestInterval:
    def test_paper_unit_round_trip(self, g):
        """rate * switches == hosts * msg / interval (flits/ns)."""
        rate = 0.02
        interval = per_host_interval_ps(rate, 512, g)
        implied = 512 * g.num_hosts * PS_PER_NS / (interval * g.num_switches)
        assert implied == pytest.approx(rate, rel=1e-6)

    def test_bad_rate(self, g):
        with pytest.raises(ValueError):
            per_host_interval_ps(0, 512, g)


class TestTrafficProcess:
    def make(self, g, seed=1, interval=200_000, max_messages=0):
        sim = Simulator()
        tables = compute_tables(g, "updown")
        net = WormholeNetwork(sim, g, tables, SinglePathPolicy(),
                              PAPER_PARAMS, message_bytes=64)
        pat = UniformTraffic(g)
        proc = TrafficProcess(sim, net, pat, ConstantArrivals(interval),
                              seed, max_messages=max_messages)
        return sim, net, proc

    def test_constant_rate(self, g):
        sim, net, proc = self.make(g, interval=250_000)
        proc.start()
        horizon = 10_000_000
        sim.run_until(horizon)
        expected = g.num_hosts * horizon / 250_000
        assert abs(net.generated - expected) / expected < 0.05

    def test_deterministic_per_seed(self, g):
        results = []
        for _ in range(2):
            sim, net, proc = self.make(g, seed=42)
            proc.start()
            sim.run_until(3_000_000)
            results.append(net.generated)
        assert results[0] == results[1]

    def test_max_messages_cap(self, g):
        sim, net, proc = self.make(g, max_messages=10)
        proc.start()
        sim.run_until(50_000_000)
        assert proc.generated == 10

    def test_double_start_rejected(self, g):
        _, _, proc = self.make(g)
        proc.start()
        with pytest.raises(RuntimeError):
            proc.start()

    def test_replay_guards(self, g):
        """A process may replay what it drew itself, once, and cannot
        start() once it replays."""
        _, _, proc = self.make(g)
        schedule = proc.pregenerate(3_000_000)
        proc.replay(schedule)
        with pytest.raises(RuntimeError):
            proc.replay(schedule)
        with pytest.raises(RuntimeError):
            proc.start()

    def test_replay_refuses_silent_firings(self, g):
        """A firing of an active host that sends nothing still draws a
        sequence number under start(); the schedule cannot list it, so
        replaying would reorder events.  It is counted and refused."""
        class SilentHostZero(UniformTraffic):
            def destinations(self, src_host, rng, n):
                dsts = super().destinations(src_host, rng, n)
                return [None] * n if src_host == 0 else dsts

        sim, net, _ = self.make(g)
        proc = TrafficProcess(sim, net, SilentHostZero(g),
                              ConstantArrivals(200_000), 1)
        schedule = proc.pregenerate(3_000_000)
        assert schedule.silent > 0 and 0 not in set(schedule.src)
        with pytest.raises(ValueError, match="silent"):
            TrafficProcess(sim, net, SilentHostZero(g),
                           ConstantArrivals(200_000), 1).replay(schedule)
        _, _, clean = self.make(g)
        assert clean.pregenerate(3_000_000).silent == 0

    def test_replay_sends_the_schedule_then_falls_silent(self, g):
        sim, net, proc = self.make(g)
        schedule = proc.pregenerate(3_000_000)
        proc.replay(schedule)
        sim.run_until(3_000_000)
        assert proc.generated == net.generated == len(schedule) > 0
        # every host waits past the horizon, as under start() ...
        assert sim.pending_events
        sim.run_until_idle()
        # ... and sends nothing more when run beyond it
        assert net.generated == len(schedule)

    def test_bad_interval(self, g):
        with pytest.raises(ValueError):
            ConstantArrivals(0)

    def test_non_process_arrivals_rejected(self, g):
        """An arrival process is an ArrivalProcess; a bare interval is
        not wrapped in one."""
        sim, net, _ = self.make(g)
        for arrivals in ("constant", 200_000):
            with pytest.raises(TypeError, match="ArrivalProcess"):
                TrafficProcess(sim, net, UniformTraffic(g), arrivals, 1)

    def test_ticks_interleave_with_equal_time_events_in_seq_order(self, g):
        """Every host fires at k * I, and each send schedules an echo
        event one interval later -- at its host's next firing.  With
        one event per tick, host h's echo was scheduled just before
        h's next tick, so each instant runs echo h0, send h0, echo h1,
        send h1, ...; the calendar must keep exactly that order."""
        interval = 1_000

        class Lockstep(ConstantArrivals):
            def next_fire_ps(self, host, now_ps, rng):
                return now_ps + self.interval_ps

        sim = Simulator()
        log = []

        class EchoNetwork:
            def send(self, src, dst):
                log.append(("send", sim.now, src))
                sim.at(sim.now + interval, log.append,
                       ("echo", sim.now + interval, src))

        hosts = [0, 3, 5]

        class ThreeHosts(UniformTraffic):
            def active_hosts(self):
                return hosts

        TrafficProcess(sim, EchoNetwork(), ThreeHosts(g), Lockstep(interval),
                       seed=1).start()
        sim.run_until(3 * interval)
        expected = [("send", interval, h) for h in hosts]
        for k in (2, 3):
            for h in hosts:
                expected += [("echo", k * interval, h),
                             ("send", k * interval, h)]
        assert log == expected


# -- registry-wide property suite --------------------------------------------


class RecordingNetwork:
    """Minimal NetworkModel stand-in: records (time, src, dst) sends."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send(self, src, dst):
        self.sent.append((self.sim.now, src, dst))


def _drive(g, traffic, traffic_kwargs, arrival, seed=5,
           interval=300_000, horizon=20_000_000):
    """Run one workload on the recording network; return the sends."""
    sim = Simulator()
    net = RecordingNetwork(sim)
    pattern, arrivals = make_workload(g, traffic, traffic_kwargs,
                                      arrival, {}, interval)
    proc = TrafficProcess(sim, net, pattern, arrivals, seed)
    proc.start()
    sim.run_until(horizon)
    return net.sent


class TestEveryWorkload:
    """Every registered pattern x every arrival process."""

    @pytest.mark.parametrize("traffic", PATTERNS.names())
    @pytest.mark.parametrize("arrival", ARRIVALS.names())
    def test_destinations_in_range_never_self(self, g, traffic, arrival):
        if not PATTERNS.get(traffic).supports(g):
            return
        sent = _drive(g, traffic, {}, arrival)
        assert sent, f"{traffic}+{arrival} generated nothing"
        for _, src, dst in sent:
            assert 0 <= dst < g.num_hosts
            assert dst != src

    @pytest.mark.parametrize("traffic", PATTERNS.names())
    def test_deterministic_under_fixed_seed(self, g, traffic):
        if not PATTERNS.get(traffic).supports(g):
            return
        a = _drive(g, traffic, {}, "constant", seed=9)
        b = _drive(g, traffic, {}, "constant", seed=9)
        assert a == b


class TestRngSeparation:
    """The PR's regression pin: arrival timing draws must never perturb
    destination draws, so per-host destination sequences are identical
    across injection rates and across arrival processes."""

    def _sequences(self, g, arrival, interval):
        seqs = defaultdict(list)
        for _, src, dst in _drive(g, "uniform", {}, arrival,
                                  seed=3, interval=interval):
            seqs[src].append(dst)
        return seqs

    def test_rate_invariant_destinations(self, g):
        slow = self._sequences(g, "constant", interval=600_000)
        fast = self._sequences(g, "constant", interval=150_000)
        for host in slow:
            n = min(len(slow[host]), len(fast[host]))
            assert n > 0
            assert slow[host][:n] == fast[host][:n]

    def test_arrival_process_invariant_destinations(self, g):
        baseline = self._sequences(g, "constant", interval=300_000)
        for arrival in ARRIVALS.names():
            other = self._sequences(g, arrival, interval=300_000)
            for host in baseline:
                n = min(len(baseline[host]), len(other.get(host, [])))
                assert baseline[host][:n] == other[host][:n], arrival


class TestArrivalProcesses:
    """Mean-rate preservation and shape pins for every process."""

    INTERVAL = 10_000

    def _mean_gap(self, proc, n=100_000):
        rng = random.Random(42)
        now = 0
        for _ in range(n):
            now = proc.next_fire_ps(0, now, rng)
        return now / n

    @pytest.mark.parametrize("factory", [
        lambda i: ConstantArrivals(i),
        lambda i: PoissonArrivals(i),
        lambda i: OnOffArrivals(i, duty=0.25, burst=8),
        lambda i: AdversarialArrivals(i, burst=16, spacing_ps=100),
    ], ids=["constant", "poisson", "onoff", "adversarial"])
    def test_mean_rate_preserved(self, factory):
        mean = self._mean_gap(factory(self.INTERVAL))
        assert mean == pytest.approx(self.INTERVAL, rel=0.03)

    def test_onoff_duty_cycle_pin(self):
        """Within-train gaps run at the peak interval (duty * mean) and
        make up ~ (burst-1)/burst of all gaps."""
        duty, burst = 0.25, 8
        proc = OnOffArrivals(self.INTERVAL, duty=duty, burst=burst)
        assert proc.peak_interval_ps == round(self.INTERVAL * duty)
        rng = random.Random(7)
        now, gaps = 0, []
        for _ in range(50_000):
            t = proc.next_fire_ps(0, now, rng)
            gaps.append(t - now)
            now = t
        peak = sum(1 for gap in gaps if gap == proc.peak_interval_ps)
        assert peak / len(gaps) == pytest.approx((burst - 1) / burst,
                                                 abs=0.02)

    def test_adversarial_rb_envelope(self):
        """Injections in any window [s, t] stay under r(t-s) + b."""
        burst, spacing = 16, 100
        proc = AdversarialArrivals(self.INTERVAL, burst=burst,
                                   spacing_ps=spacing)
        rng = random.Random(1)
        now, times = 0, []
        for _ in range(10 * burst):
            now = proc.next_fire_ps(0, now, rng)
            times.append(now)
        r = 1.0 / self.INTERVAL
        for i, s in enumerate(times):
            for j in range(i, len(times)):
                window = times[j] - s
                count = j - i + 1
                assert count <= r * window + burst + 1e-9

    def test_adversarial_infeasible_volley_rejected(self):
        with pytest.raises(ValueError):
            AdversarialArrivals(100, burst=16, spacing_ps=200)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OnOffArrivals(self.INTERVAL, duty=0.0)
        with pytest.raises(ValueError):
            OnOffArrivals(self.INTERVAL, burst=0)
        with pytest.raises(ValueError):
            ConstantArrivals(0)


class TestCollectives:
    def test_incast_all_roads_lead_to_target(self, g):
        pat = IncastTraffic(g, target=5)
        rng = random.Random(1)
        for h in pat.active_hosts():
            assert pat.destination(h, rng) == 5
        assert 5 not in pat.active_hosts()

    def test_incast_bad_target(self, g):
        with pytest.raises(ValueError):
            IncastTraffic(g, target=g.num_hosts)


class TestRegistryGating:
    def test_supports_counterexamples(self):
        g3 = build_torus(rows=1, cols=3, hosts_per_switch=1)  # 3 hosts
        names = PATTERNS.supported(g3)
        assert "uniform" in names
        assert "bit-reversal" not in names
        assert "complement" not in names
        with pytest.raises(ValueError, match="power-of-two"):
            make_pattern("bit-reversal", g3)

    def test_transpose_needs_power_of_four(self, g):
        # 32 hosts: power of two but not of four
        assert not PATTERNS.get("transpose").supports(g)
        g16 = build_torus(rows=4, cols=4, hosts_per_switch=1)
        assert PATTERNS.get("transpose").supports(g16)

    def test_unknown_names(self, g):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            validate_workload("zipf", {})
        with pytest.raises(ValueError, match="unknown arrival"):
            validate_workload("uniform", {}, "weibull", {})

    def test_kwarg_declarations_enforced(self):
        with pytest.raises(ValueError, match="unknown kwargs"):
            validate_workload("uniform", {"alpha": 1.0})
        with pytest.raises(ValueError, match="wants int"):
            validate_workload("hotspot", {"hotspot": True})
        with pytest.raises(ValueError, match="wants float"):
            validate_workload("hotspot", {"fraction": "hot"})
        with pytest.raises(ValueError, match="unknown kwargs"):
            validate_workload("uniform", {}, "onoff", {"burstiness": 2})

    def test_parse_workload_specs(self):
        assert parse_workload("uniform") == ("uniform", "constant")
        assert parse_workload("uniform+onoff") == ("uniform", "onoff")
        with pytest.raises(ValueError):
            parse_workload("uniform+weibull")
        with pytest.raises(ValueError):
            parse_workload("zipf+onoff")

    def test_workload_labels(self):
        assert workload_label("uniform", {}) == "uniform"
        assert "+" in workload_label("uniform", {}, "onoff", {})
        assert "10%" in workload_label("hotspot", {"fraction": 0.10})

    def test_new_pattern_needs_zero_config_edits(self, g):
        """The acceptance criterion of the registry refactor: register
        a pattern and it is immediately buildable, validatable and
        labelled everywhere -- no CLI or config edits."""
        from repro.traffic.registry import Kwarg, PatternSpec

        class EchoTraffic(UniformTraffic):
            def __init__(self, graph, alpha=1.0):
                super().__init__(graph)
                self.alpha = alpha

        PATTERNS.register(PatternSpec(
            name="echo-test", description="throwaway",
            build=EchoTraffic,
            kwargs=(Kwarg("alpha", float, 1.0, "skew"),)))
        try:
            assert "echo-test" in PATTERNS.names()
            cfg = SimConfig(traffic="echo-test",
                            traffic_kwargs={"alpha": 1.5})
            cfg.validate()
            assert cfg.workload_label() == "echo-test(alpha=1.5)"
            pat = make_pattern("echo-test", g, alpha=1.5)
            assert pat.alpha == 1.5
            with pytest.raises(ValueError):
                PATTERNS.register(PatternSpec(
                    name="echo-test", description="dup",
                    build=EchoTraffic))
        finally:
            PATTERNS.unregister("echo-test")
        assert "echo-test" not in PATTERNS.names()

    def test_simconfig_round_trip_every_pattern(self):
        """Registry names survive SimConfig validate + dict round trip
        (what the orchestrator's content-addressed store keys on)."""
        for traffic in PATTERNS.names():
            cfg = SimConfig(traffic=traffic)
            cfg.validate()
            assert SimConfig.from_dict(cfg.to_dict()) == cfg
        for arrival in ARRIVALS.names():
            cfg = SimConfig(arrival=arrival)
            cfg.validate()
            assert SimConfig.from_dict(cfg.to_dict()) == cfg


# -- replay == start() --------------------------------------------------------


#: the fabrics TestReplayIsTheScalarRun runs on (64 and 16 hosts)
REPLAY_FABRICS = {
    "packet": ("torus", {"rows": 4, "cols": 4, "hosts_per_switch": 4}),
    "flit": ("mesh", {"rows": 2, "cols": 2, "hosts_per_switch": 4}),
}
#: every registered pattern both of them support (all of them: both
#: host counts are powers of four)
REPLAY_PATTERNS = sorted(
    set(PATTERNS.names()).intersection(
        *(PATTERNS.supported(build_topology(name, **kwargs))
          for name, kwargs in REPLAY_FABRICS.values())))


class TestReplayIsTheScalarRun:
    """``run_simulation`` replays the memoised schedule.  A run that
    draws every message from the RNG streams as it fires instead
    (``start()``, the scalar reference) must send the same messages in
    the same order, run the same number of events and end in the same
    summary: the replay draws every event sequence number where
    ``start()`` draws it."""

    #: engine -> the rate and windows it runs in reasonable time
    WINDOWS = {
        "packet": dict(injection_rate=0.06,
                       warmup_ps=20_000_000, measure_ps=60_000_000),
        "flit": dict(injection_rate=0.1,
                     warmup_ps=5_000_000, measure_ps=15_000_000),
    }
    FAULTS = {"faults": [{"t_ps": 30_000_000, "link_id": 3}]}

    def both(self, monkeypatch, engine, overrides=None, **options):
        """The replayed run's summary and send list, after asserting
        the scalar run sent and ran the same."""
        from repro.runner import clear_caches, run_simulation
        from repro.sim.base import NetworkModel

        topology, topology_kwargs = REPLAY_FABRICS[engine]
        cfg = SimConfig(engine=engine, routing="itb", policy="rr", seed=5,
                        topology=topology, topology_kwargs=topology_kwargs,
                        **{**self.WINDOWS[engine], **(overrides or {})})
        sent = []
        send = NetworkModel.send

        def recording(net, src, dst, *args, **kwargs):
            sent.append((net.sim.now, src, dst))
            return send(net, src, dst, *args, **kwargs)
        monkeypatch.setattr(NetworkModel, "send", recording)
        reports = []
        clear_caches()
        # cold: the schedule is drawn in bulk, memoised and replayed
        replayed = run_simulation(cfg, perf=reports.append, **options)
        replayed_sends = list(sent)
        sent.clear()
        with monkeypatch.context() as m:
            # warm: a memo hit draws nothing, so start() gets the
            # process's untouched streams and draws as it fires
            m.setattr(TrafficProcess, "replay",
                      lambda self, schedule: self.start())
            scalar = run_simulation(cfg, perf=reports.append, **options)
        assert replayed_sends and sent == replayed_sends
        assert reports[0].events == reports[1].events
        assert replayed.to_dict() == scalar.to_dict()
        return replayed, replayed_sends

    @pytest.mark.parametrize("engine", ["packet", "flit"])
    @pytest.mark.parametrize("arrival", ARRIVALS.names())
    @pytest.mark.parametrize("traffic", REPLAY_PATTERNS)
    def test_every_arrival_process(self, monkeypatch, engine, arrival,
                                   traffic):
        self.both(monkeypatch, engine, {"arrival": arrival,
                                        "traffic": traffic})

    def test_max_messages_applies_in_fire_order(self, monkeypatch):
        _, sends = self.both(monkeypatch, "packet",
                             {"max_messages": 150, "injection_rate": 0.2})
        assert len(sends) == 150

    def test_reliable_transport(self, monkeypatch):
        replayed, _ = self.both(monkeypatch, "packet", reliable=True)
        assert replayed.messages_delivered > 0

    def test_fault_plan(self, monkeypatch):
        replayed, _ = self.both(monkeypatch, "packet",
                                fault_plan=self.FAULTS)
        assert replayed.messages_delivered > 0
