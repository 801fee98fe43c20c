"""Knee detection on synthetic curves + p99 plumbing through the runner."""

from __future__ import annotations

import pytest

from repro.metrics.saturation import knee_from_runs, latency_knee
from repro.metrics.summary import RunSummary
from tests.conftest import small_config


def _rs(offered: float, latency, saturated: bool = False) -> RunSummary:
    """Minimal RunSummary for curve-shape tests."""
    return RunSummary(
        config=small_config(injection_rate=max(offered, 1e-6)),
        offered_flits_ns_switch=offered,
        accepted_flits_ns_switch=offered,
        messages_delivered=900, messages_generated=1000,
        avg_latency_ns=latency, avg_network_latency_ns=latency,
        max_latency_ns=latency, avg_itbs_per_message=0.0,
        itb_overflow_count=0, itb_peak_bytes=0, link_utilization=None,
        backlog_growth=900 if saturated else 0)


class TestLatencyKnee:
    def test_hockey_stick(self):
        offered = [1, 2, 3, 4, 5, 6]
        latency = [100, 105, 120, 180, 450, 2000]
        k = latency_knee(offered, latency, threshold=2.0)
        # baseline 100, threshold 200: the last compliant point is 4
        assert (k.offered, k.latency) == (4, 180)
        assert k.index == 3
        assert k.bracketed

    def test_unsorted_input_is_sorted_first(self):
        k = latency_knee([5, 1, 3], [450, 100, 120])
        assert k.offered == 3
        assert k.index == 1  # index in ascending-offered order

    def test_unbracketed_when_curve_never_bends(self):
        k = latency_knee([1, 2, 3], [100, 110, 130])
        assert k.offered == 3
        assert not k.bracketed

    def test_none_latencies_ignored(self):
        k = latency_knee([1, 2, 3, 4], [100, None, 150, 900])
        assert k.offered == 3
        assert k.bracketed

    def test_no_finite_points_gives_none(self):
        assert latency_knee([], []) is None
        assert latency_knee([1, 2], [None, None]) is None

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            latency_knee([1], [100], threshold=1.0)
        with pytest.raises(ValueError, match="zero-load"):
            latency_knee([1, 2], [0.0, 100])

    def test_single_point_is_its_own_knee(self):
        k = latency_knee([2], [50])
        assert (k.offered, k.bracketed) == (2, False)


class TestKneeFromRuns:
    def test_saturated_runs_excluded(self):
        runs = [_rs(1, 100), _rs(2, 120), _rs(3, 150),
                # a saturated point with deceptively low window latency
                # must not be mistaken for a stable operating point
                _rs(4, 130, saturated=True), _rs(5, 900)]
        k = knee_from_runs(runs, threshold=2.0)
        assert k.offered == 3
        assert k.bracketed

    def test_all_saturated_gives_none(self):
        assert knee_from_runs([_rs(1, 100, saturated=True)]) is None


class TestP99Plumbing:
    def test_percentiles_off_by_default(self):
        from repro.runner import run_simulation
        s = run_simulation(small_config(injection_rate=0.004))
        assert s.p99_latency_ns is None

    def test_percentiles_collected_on_request(self):
        from repro.runner import run_simulation
        s = run_simulation(small_config(injection_rate=0.004),
                           collect_percentiles=True)
        assert s.messages_delivered > 0
        assert s.p99_latency_ns is not None
        # nearest-rank p99 sits between the mean and the maximum
        assert s.avg_latency_ns <= s.p99_latency_ns <= s.max_latency_ns
        # and survives the result-store round trip
        assert RunSummary.from_dict(s.to_dict()) == s
