"""JSON round-trip of the config/result dataclasses.

The orchestrator's result store persists ``SimConfig`` and
``RunSummary`` as JSON; these tests pin the contract that a full
``to_dict -> json -> from_dict`` round trip is *exact* (Python's JSON
float encoding is repr-based), so stored results compare equal to
freshly computed ones.
"""

import json

import numpy as np
import pytest

from repro.canon import canonical_json, digest, freeze
from repro.config import MyrinetParams, SimConfig
from repro.experiments.runner import run_simulation
from repro.metrics.summary import RunSummary
from repro.orchestrator import Executor, Point, ResultStore
from repro.orchestrator.pool import POINT_TASK_FN
from repro.sim import FaultPlan, ReconfigParams, ReliableParams
from repro.units import ns
from tests.conftest import small_config


def _json_round(data):
    return json.loads(json.dumps(data))


class TestCanon:
    def test_freeze_is_order_insensitive(self):
        a = freeze({"b": 2, "a": {"y": [1, 2], "x": 1}})
        b = freeze({"a": {"x": 1, "y": [1, 2]}, "b": 2})
        assert a == b
        assert hash(a) == hash(b)

    def test_freeze_nested_containers_hashable(self):
        frozen = freeze({"grid": {"sizes": [4, 4]}, "tags": {"x", "y"}})
        assert hash(frozen) is not None
        assert {frozen: 1}[frozen] == 1

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == \
            '{"a":[2,{"c":4,"d":3}],"b":1}'

    def test_digest_distinguishes_values(self):
        assert digest({"x": 1}) != digest({"x": 2})
        assert digest({"x": 1, "y": 2}) == digest({"y": 2, "x": 1})


class TestParamsRoundTrip:
    def test_round_trip_defaults(self):
        p = MyrinetParams()
        assert MyrinetParams.from_dict(_json_round(p.to_dict())) == p

    def test_round_trip_overrides(self):
        p = MyrinetParams().with_overrides(itb_pool_bytes=1024,
                                           switch_ports=8)
        assert MyrinetParams.from_dict(_json_round(p.to_dict())) == p

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            MyrinetParams.from_dict({"flit_cycle_ps": 1, "bogus": 2})


class TestConfigRoundTrip:
    def test_round_trip_default(self):
        cfg = SimConfig()
        assert SimConfig.from_dict(_json_round(cfg.to_dict())) == cfg

    def test_round_trip_full(self):
        cfg = SimConfig(
            topology="torus",
            topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
            routing="itb", policy="rr", traffic="hotspot",
            traffic_kwargs={"hotspot": 3, "fraction": 0.1},
            injection_rate=0.0123, message_bytes=64,
            params=MyrinetParams().with_overrides(slack_buffer_bytes=96,
                                                  stop_threshold_bytes=80),
            seed=42, max_messages=100, engine="flit")
        back = SimConfig.from_dict(_json_round(cfg.to_dict()))
        assert back == cfg
        assert back.params == cfg.params

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SimConfig.from_dict({"topology": "torus", "frobnicate": 1})


class TestSummaryRoundTrip:
    def test_round_trip_exact(self):
        s = run_simulation(small_config())
        back = RunSummary.from_dict(_json_round(s.to_dict()))
        assert back == s  # dataclass equality: every float bit-identical
        assert back.config == s.config
        assert back.saturated == s.saturated

    def test_round_trip_with_link_utilization(self):
        s = run_simulation(small_config(), collect_links=True)
        back = RunSummary.from_dict(_json_round(s.to_dict()))
        u, v = s.link_utilization, back.link_utilization
        assert v is not None
        assert v.window_ps == u.window_ps
        assert v.channel_ends == u.channel_ends
        assert np.array_equal(v.utilization, u.utilization)
        assert np.array_equal(v.reserved, u.reserved)
        assert np.array_equal(v.per_link, u.per_link)
        assert v.summary() == u.summary()

    def test_unknown_field_rejected(self):
        s = run_simulation(small_config())
        data = s.to_dict()
        data["mystery"] = 1
        with pytest.raises(ValueError, match="unknown"):
            RunSummary.from_dict(data)


class TestFaultPlanThroughStore:
    """A fault plan rides in a point's runner kwargs; the orchestrator
    persists the payload as JSON.  The round trip through the result
    store must reproduce the plan exactly, and the plan must key the
    cache (same config, different plan -> different entry)."""

    PLAN = FaultPlan.at((ns(20_000), 3), (ns(30_000), 7))

    def test_plan_dict_round_trip(self):
        back = FaultPlan.from_dict(_json_round(self.PLAN.to_dict()))
        assert back == self.PLAN

    def test_reliability_params_json_round_trip(self):
        rel = ReliableParams(timeout_ps=ns(7_000), backoff=1.5)
        rec = ReconfigParams(detection_latency_ps=ns(2_000))
        assert ReliableParams.from_dict(_json_round(rel.to_dict())) == rel
        assert ReconfigParams.from_dict(_json_round(rec.to_dict())) == rec

    def test_stored_point_reproduces_plan(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = small_config(measure_ps=ns(40_000))
        point = Point(point_id="p0", config=cfg,
                      runner_kwargs={"fault_plan": self.PLAN.to_dict()})
        executor = Executor(store=store)
        summary = executor.run_points([point])[0]
        assert executor.stats.simulated == 1
        key = store.key(POINT_TASK_FN, point.payload())
        record = store.get(key)
        assert record is not None
        stored = FaultPlan.from_dict(
            record["payload"]["runner_kwargs"]["fault_plan"])
        assert stored == self.PLAN
        assert RunSummary.from_dict(record["result"]) == summary
        # rerun is a pure cache hit with an identical summary
        again = Executor(store=store).run_points([point])[0]
        assert again == summary

    def test_plan_distinguishes_cache_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = small_config(measure_ps=ns(40_000))
        fn = POINT_TASK_FN
        with_plan = Point(point_id="a", config=cfg,
                          runner_kwargs={"fault_plan":
                                         self.PLAN.to_dict()})
        without = Point(point_id="b", config=cfg)
        assert store.key(fn, with_plan.payload()) != \
            store.key(fn, without.payload())
