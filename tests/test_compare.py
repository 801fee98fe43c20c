"""A/B comparison harness."""

import pytest

from repro.experiments.compare import compare_configs
from repro.metrics.stats import replication_interval
from tests.conftest import small_config


class TestReplicationInterval:
    def test_basic(self):
        ci = replication_interval([10.0, 12.0, 11.0, 9.0, 13.0])
        assert ci.mean == 11.0
        assert ci.half_width > 0
        assert ci.batches == 5

    def test_needs_two(self):
        with pytest.raises(ValueError):
            replication_interval([5.0])


class TestCompareConfigs:
    def test_updown_vs_itb_at_contested_load(self):
        """On the paper's 8x8 torus above UP/DOWN's knee, ITB must win
        the latency verdict decisively across seeds."""
        from repro.config import SimConfig
        from repro.units import ns
        window = dict(topology="torus", traffic="uniform",
                      injection_rate=0.02,
                      warmup_ps=ns(40_000), measure_ps=ns(150_000))
        a = SimConfig(routing="updown", policy="sp", **window)
        b = SimConfig(routing="itb", policy="rr", **window)
        res = compare_configs(a, b, seeds=(1, 2, 3))
        assert res.latency_verdict == "b"
        text = res.render()
        assert "UP/DOWN" in text and "ITB-RR" in text
        assert "lower latency" in text

    def test_self_comparison_is_tie(self):
        cfg = small_config(injection_rate=0.02)
        res = compare_configs(cfg, cfg, seeds=(1, 2, 3))
        assert res.latency_verdict == "tie"
        assert res.throughput_verdict == "tie"

    def test_runs_are_one_executor_batch(self, tmp_path):
        """The seeds are cacheable points like any other study's."""
        from repro.orchestrator import Executor, ResultStore
        a = small_config(injection_rate=0.02)
        b = small_config(injection_rate=0.02, policy="sp")
        first = Executor(store=ResultStore(tmp_path))
        res = compare_configs(a, b, seeds=(1, 2, 3), executor=first)
        assert (first.stats.simulated, first.stats.cached) == (6, 0)
        again = Executor(store=ResultStore(tmp_path))
        assert compare_configs(a, b, seeds=(1, 2, 3),
                               executor=again) == res
        assert (again.stats.simulated, again.stats.cached) == (0, 6)
        assert compare_configs(a, b, seeds=(1, 2, 3)) == res

    def test_needs_two_seeds(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            compare_configs(cfg, cfg, seeds=(1,))

    def test_empty_window_rejected(self):
        cfg = small_config(injection_rate=0.0005, measure_ps=1_000_000,
                           warmup_ps=0)
        with pytest.raises(ValueError, match="nothing delivered"):
            compare_configs(cfg, cfg, seeds=(1, 2))
