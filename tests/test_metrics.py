"""Metrics: latency collector, link stats, saturation search."""

import math
from array import array

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.metrics.collector import LatencyCollector
from repro.metrics.linkstats import LinkUtilization
from repro.metrics.saturation import find_saturation
from repro.metrics.summary import RunSummary
from repro.routing.routes import RouteLeg, SourceRoute
from repro.sim.packet import Packet


def mk_packet(created, injected, delivered, payload=512, pid=0):
    route = SourceRoute((RouteLeg((0,), ()),)).to_store()
    p = Packet(pid, 0, 1, payload, route, created, PAPER_PARAMS)
    p.injected_ps = injected
    p.delivered_ps = delivered
    return p


class TestLatencyCollector:
    def test_accumulates(self):
        c = LatencyCollector()
        c.on_delivered(mk_packet(0, 100, 1_000))
        c.on_delivered(mk_packet(0, 500, 3_000))
        assert c.messages == 2
        assert c.payload_flits == 1024
        assert c.avg_latency_ns() == pytest.approx((1.0 + 3.0) / 2)
        assert c.avg_network_latency_ns() == pytest.approx((0.9 + 2.5) / 2)
        assert c.max_latency_ps == 3_000

    def test_empty_returns_none(self):
        c = LatencyCollector()
        assert c.avg_latency_ns() is None
        assert c.avg_network_latency_ns() is None
        assert c.avg_itbs_per_message() is None

    def test_reset(self):
        c = LatencyCollector()
        c.on_delivered(mk_packet(0, 0, 500))
        c.reset()
        assert c.messages == 0
        assert c.payload_flits == 0
        assert c.avg_latency_ns() is None

    def test_accepted_traffic_unit(self):
        """1024 payload flits over 1000 ns on 2 switches =
        0.512 flits/ns/switch."""
        c = LatencyCollector()
        c.on_delivered(mk_packet(0, 0, 1, payload=1024))
        assert c.accepted_flits_ns_switch(1_000_000, 2) == \
            pytest.approx(0.512)

    def test_accepted_traffic_validation(self):
        c = LatencyCollector()
        with pytest.raises(ValueError):
            c.accepted_flits_ns_switch(0, 2)

    def test_percentiles_require_samples(self):
        c = LatencyCollector()
        with pytest.raises(RuntimeError):
            c.percentile_ns(0.5)

    def test_percentiles(self):
        c = LatencyCollector(keep_samples=True)
        for i in range(1, 11):
            c.on_delivered(mk_packet(0, 0, i * 1_000, pid=i))
        assert c.percentile_ns(0.0) == 1.0
        # nearest-rank: rank ceil(0.5 * 10) = 5 -> the 5th sample, not
        # the 6th (the old int(q * n) indexing over-indexed by one)
        assert c.percentile_ns(0.5) == 5.0
        assert c.percentile_ns(1.0) == 10.0
        with pytest.raises(ValueError):
            c.percentile_ns(1.5)

    def test_percentile_nearest_rank_exact_boundaries(self):
        """Exact-boundary quantiles follow the nearest-rank definition
        (rank = ceil(q * n), 1-based)."""
        c = LatencyCollector(keep_samples=True)
        for i in range(1, 5):  # samples 1, 2, 3, 4 ns
            c.on_delivered(mk_packet(0, 0, i * 1_000, pid=i))
        assert c.percentile_ns(0.25) == 1.0   # ceil(1) -> 1st
        assert c.percentile_ns(0.5) == 2.0    # ceil(2) -> 2nd
        assert c.percentile_ns(0.75) == 3.0   # ceil(3) -> 3rd
        assert c.percentile_ns(1.0) == 4.0    # ceil(4) -> 4th (no clamp)
        assert c.percentile_ns(0.51) == 3.0   # ceil(2.04) -> 3rd

    def test_percentile_single_sample(self):
        c = LatencyCollector(keep_samples=True)
        c.on_delivered(mk_packet(0, 0, 7_000))
        for q in (0.0, 0.5, 1.0):
            assert c.percentile_ns(q) == 7.0

    def test_percentile_empty_returns_none(self):
        c = LatencyCollector(keep_samples=True)
        assert c.percentile_ns(0.5) is None


class TestPercentileCacheAndBatch:
    """The lazily sorted percentile cache and the batch recording path
    must be observationally identical to fresh sorting / per-message
    recording."""

    def test_nearest_rank_matches_statistics_quantiles(self):
        """Property: with 101 samples, ``statistics.quantiles`` (method
        ``inclusive``, n=100) lands exactly on sample ranks -- the
        interpolation weight is zero -- so nearest-rank must agree bit
        for bit at every interior percentile, for random data."""
        import random
        import statistics
        for seed in range(5):
            rng = random.Random(seed)
            samples = [rng.randrange(1, 10**9) for _ in range(101)]
            c = LatencyCollector(keep_samples=True)
            c.record_batch(samples, samples, [512] * len(samples),
                           [0] * len(samples))
            cuts = statistics.quantiles(samples, n=100,
                                        method="inclusive")
            for i in range(1, 100):
                assert c.percentile_ns(i / 100) == cuts[i - 1] / 1_000

    def test_nearest_rank_property_random_sizes(self):
        """Property: the nearest-rank percentile is always an actual
        sample, and it is the smallest sample with at least ``q * n``
        samples at or below it."""
        import math
        import random
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randrange(1, 40)
            samples = [rng.randrange(1, 10**6) for _ in range(n)]
            c = LatencyCollector(keep_samples=True)
            c.record_batch(samples, samples, [512] * n, [0] * n)
            q = rng.random()
            r_ns = c.percentile_ns(q)
            matches = [s for s in samples if s / 1_000 == r_ns]
            assert matches
            r = matches[0]
            rank = max(1, math.ceil(q * n))
            assert sum(1 for s in samples if s <= r) >= rank
            below = [s for s in sorted(samples) if s < r]
            if below:
                assert sum(1 for s in samples if s <= below[-1]) < rank

    def test_cache_invalidated_by_record(self):
        """Querying, then recording more (both paths), then querying
        again must equal a fresh collector over the union -- the sorted
        cache may never serve stale data."""
        c = LatencyCollector(keep_samples=True)
        c.on_delivered(mk_packet(0, 0, 5_000))
        c.on_delivered(mk_packet(0, 0, 1_000))
        assert c.percentile_ns(1.0) == 5.0  # populates the cache
        c.on_delivered(mk_packet(0, 0, 9_000))
        assert c.percentile_ns(1.0) == 9.0
        c.record_batch([11_000], [11_000], [512], [0])
        assert c.percentile_ns(1.0) == 11.0
        assert c.percentile_ns(0.0) == 1.0
        fresh = LatencyCollector(keep_samples=True)
        fresh.record_batch([5_000, 1_000, 9_000, 11_000],
                           [5_000, 1_000, 9_000, 11_000],
                           [512] * 4, [0] * 4)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert c.percentile_ns(q) == fresh.percentile_ns(q)

    def test_cache_invalidated_by_reset(self):
        c = LatencyCollector(keep_samples=True)
        c.on_delivered(mk_packet(0, 0, 5_000))
        assert c.percentile_ns(0.5) == 5.0
        c.reset()
        assert c.percentile_ns(0.5) is None
        c.on_delivered(mk_packet(0, 0, 2_000))
        assert c.percentile_ns(0.5) == 2.0

    def test_record_batch_equals_sequential(self):
        """One cohort == the same messages delivered one by one, on
        every accumulator."""
        pkts = [mk_packet(0, i * 100, (i + 3) * 1_000, payload=256 + i,
                          pid=i) for i in range(7)]
        seq = LatencyCollector(keep_samples=True)
        for p in pkts:
            seq.on_delivered(p)
        batch = LatencyCollector(keep_samples=True)
        batch.record_batch([p.latency_ps() for p in pkts],
                           [p.network_latency_ps() for p in pkts],
                           [p.payload_bytes for p in pkts],
                           [p.num_itbs for p in pkts])
        for field in ("messages", "payload_flits", "sum_latency_ps",
                      "sum_network_latency_ps", "max_latency_ps",
                      "sum_itbs", "samples_ps"):
            assert getattr(seq, field) == getattr(batch, field)

    def test_record_batch_empty_is_a_no_op(self):
        c = LatencyCollector(keep_samples=True)
        c.record_batch([], [], [], [])
        assert c.messages == 0 and c.max_latency_ps == 0
        assert c.samples_ps == []


def synthetic_run_at(capacity, window_messages=1000):
    """Network that accepts min(offered, capacity); past capacity the
    backlog grows by the excess."""
    def run_at(rate):
        accepted = min(rate, capacity)
        generated = window_messages
        delivered = int(window_messages * accepted / rate)
        cfg = SimConfig(injection_rate=rate)
        return RunSummary(
            config=cfg, offered_flits_ns_switch=rate,
            accepted_flits_ns_switch=accepted,
            messages_delivered=delivered, messages_generated=generated,
            avg_latency_ns=1000.0, avg_network_latency_ns=900.0,
            max_latency_ns=2000.0, avg_itbs_per_message=0.0,
            itb_overflow_count=0, itb_peak_bytes=0, link_utilization=None,
            backlog_growth=generated - delivered)
    return run_at


class TestSaturationSearch:
    def test_finds_capacity(self):
        res = find_saturation(synthetic_run_at(0.03), start_rate=0.005)
        assert res.throughput == pytest.approx(0.03, rel=0.02)
        assert res.last_stable_rate <= res.first_saturated_rate

    def test_bracket_tightens_with_refinement(self):
        lo_res = find_saturation(synthetic_run_at(0.03), 0.005,
                                 refine_steps=0)
        hi_res = find_saturation(synthetic_run_at(0.03), 0.005,
                                 refine_steps=5)
        width = lambda r: r.first_saturated_rate - r.last_stable_rate
        assert width(hi_res) < width(lo_res)

    def test_start_rate_already_saturated_ramps_down(self):
        """A saturating start_rate must not report last_stable_rate=0:
        the search ramps down geometrically until a stable rate is
        measured, then bisects the (stable, saturated) bracket."""
        res = find_saturation(synthetic_run_at(0.002), start_rate=0.005)
        assert res.last_stable_rate > 0.0
        assert any(not r.saturated for r in res.runs)
        assert res.last_stable_rate < res.first_saturated_rate
        assert res.first_saturated_rate <= 0.005
        assert res.throughput == pytest.approx(0.002, rel=0.05)

    def test_deeply_saturated_start_gives_up_after_down_steps(self):
        """When even deep down-ramp probes saturate, the search stops
        after max_down_steps instead of looping forever."""
        res = find_saturation(synthetic_run_at(1e-9), start_rate=1.0,
                              max_down_steps=4)
        assert not res.converged
        # 1 up probe + 4 down probes; no bisection without a bracket
        assert len(res.runs) == 5

    def test_exhausted_down_ramp_reports_nan_not_zero(self):
        """Regression: an always-saturated response curve must not
        yield a last_stable_rate anchored on the never-measured 0.0.
        The exhausted ramp is reported explicitly: converged=False and
        last_stable_rate=nan, with every probed rate saturated."""
        res = find_saturation(synthetic_run_at(1e-9), start_rate=1.0,
                              max_down_steps=4)
        assert res.converged is False
        assert math.isnan(res.last_stable_rate)
        assert all(r.saturated for r in res.runs)
        # first_saturated_rate is the lowest rate actually probed
        probed = [r.offered_flits_ns_switch for r in res.runs]
        assert res.first_saturated_rate == pytest.approx(min(probed))

    def test_converged_set_on_bracketed_search(self):
        res = find_saturation(synthetic_run_at(0.03), start_rate=0.005)
        assert res.converged

    def test_ramp_down_recovery_is_converged(self):
        res = find_saturation(synthetic_run_at(0.002), start_rate=0.005)
        assert res.converged

    def test_never_saturates_within_bounds(self):
        res = find_saturation(synthetic_run_at(1e9), 0.005, max_rate=0.1)
        assert res.first_saturated_rate == float("inf")
        assert res.throughput > 0
        assert not res.converged

    def test_run_log_kept(self):
        res = find_saturation(synthetic_run_at(0.03), 0.005)
        assert len(res.runs) >= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            find_saturation(synthetic_run_at(1), 0.0)
        with pytest.raises(ValueError):
            find_saturation(synthetic_run_at(1), 0.1, growth=1.0)


class TestRunSummarySaturatedFlag:
    def test_not_saturated(self):
        s = synthetic_run_at(10.0)(0.02)
        assert not s.saturated

    def test_saturated(self):
        s = synthetic_run_at(0.01)(0.02)
        assert s.saturated

    def test_oneline_smoke(self):
        s = synthetic_run_at(10.0)(0.02)
        line = s.oneline()
        assert "offered=0.0200" in line
        assert "UP/DOWN" in line


class TestLinkUtilizationHottest:
    def test_exact_ties_break_by_channel_index(self):
        """Utilisation descending, then channel index ascending."""
        util = array("d", [0.5] * 20 + [0.2] * 20)
        ends = [(i, i + 1, i // 2) for i in range(40)]
        lu = LinkUtilization(1000, ends, util, util, util[::2])
        assert [e[1] for e in lu.hottest(5)] == [0, 1, 2, 3, 4]
        assert [e[1] for e in lu.hottest(22)[18:]] == [18, 19, 20, 21]
        # the order is a property of the values, not of their position
        mixed = array("d", [0.2, 0.5] * 20)
        lu = LinkUtilization(1000, ends, mixed, mixed, mixed[::2])
        assert lu.hottest(3) == [(0.5, 1, 2, 0), (0.5, 3, 4, 1),
                                 (0.5, 5, 6, 2)]
        assert [e[1] for e in lu.hottest(40)[20:23]] == [0, 2, 4]
