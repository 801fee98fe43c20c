"""JSON round-trip of the config/result dataclasses.

The orchestrator's result store persists ``SimConfig`` and
``RunSummary`` as JSON; these tests pin the contract that a full
``to_dict -> json -> from_dict`` round trip is *exact* (Python's JSON
float encoding is repr-based), so stored results compare equal to
freshly computed ones.  Every record is a :class:`repro.canon.PlainData`;
``TestRecordCodec`` round-trips each of them and pins the format a
stored record has.
"""

import json
from array import array
from dataclasses import MISSING, fields

import numpy as np
import pytest

from repro.canon import PlainData, canonical_json, digest, freeze
from repro.config import MyrinetParams, SimConfig
from repro.experiments.adversary import StabilityCell, StabilityReport
from repro.runner import run_simulation
from repro.experiments.tournament import (SchemeEntry, TopologySpec,
                                          TournamentCell, TournamentReport)
from repro.metrics.linkstats import LinkUtilization
from repro.metrics.saturation import SaturationResult
from repro.metrics.summary import RunSummary
from repro.orchestrator import Executor, Point, ResultStore
from repro.orchestrator.pool import POINT_TASK_FN
from repro.sim import FaultPlan, LinkFault, ReconfigParams, ReliableParams
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


# -- one record codec -------------------------------------------------------

#: every field off its default
PARAMS = MyrinetParams(
    flit_cycle_ps=5_000, link_prop_ps=40_000, routing_delay_ps=120_000,
    slack_buffer_bytes=96, stop_threshold_bytes=80, go_threshold_bytes=48,
    itb_detect_ps=250_000, itb_dma_setup_ps=180_000, itb_pool_bytes=4096,
    itb_overflow_penalty_ps=1_000_000, nic_memory_bytes=1 << 20,
    switch_ports=8, max_routes_per_pair=4)
CONFIG = SimConfig(
    topology="torus-express",
    topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
    routing="itb", policy="rr", traffic="hotspot",
    traffic_kwargs={"hotspot": 3, "fraction": 0.1},
    arrival="onoff", arrival_kwargs={"on_fraction": 0.5},
    injection_rate=0.0125, message_bytes=64, params=PARAMS, seed=7,
    warmup_ps=1_000, measure_ps=5_000, max_messages=100, engine="array")
LINKS = LinkUtilization(5_000, [(0, 1, 0), (1, 0, 0)],
                        array("d", [0.25, 0.5]),
                        array("d", [0.375, 0.625]), array("d", [0.5]))
SUMMARY = RunSummary(
    config=CONFIG, offered_flits_ns_switch=0.0125,
    accepted_flits_ns_switch=0.011, messages_delivered=40,
    messages_generated=42, avg_latency_ns=950.25,
    avg_network_latency_ns=812.5, max_latency_ns=2000.0,
    avg_itbs_per_message=0.25, itb_overflow_count=1, itb_peak_bytes=4096,
    link_utilization=LINKS, backlog_growth=2, messages_dropped=3,
    dropped_in_flight=2, dropped_unroutable=1, retransmissions=4,
    duplicate_deliveries=1, permanent_losses=1, recovered_messages=2,
    reconfigurations=1, time_to_recover_ns=12.5, p99_latency_ns=1500.0)
CELL = TournamentCell(
    routing="itb", policy="rr", label="ITB-RR", topology="4x4 torus",
    pattern="uniform", supported=True, throughput=0.05, converged=True,
    knee_offered=0.01, knee_latency_ns=900.0, knee_bracketed=True,
    probe_rate=0.008, p99_latency_ns=1200.0, avg_latency_ns=800.0,
    degraded_throughput=0.04, retention=0.8)
STABILITY_CELL = StabilityCell(
    routing="updown", policy="sp", label="UD", fraction=0.6, rate=0.006,
    accepted=0.0059, avg_latency_ns=None, backlog_growth=3,
    messages_generated=120, stable=True)

#: one instance per record class
RECORDS = [
    PARAMS, CONFIG, LINKS, SUMMARY,
    SaturationResult(0.011, 0.01, float("inf"), [SUMMARY],
                     converged=False),
    ReliableParams(timeout_ps=ns(7_000), backoff=1.5, max_attempts=5,
                   failover_after=3, ack_delay_ps=ns(50)),
    ReconfigParams(detection_latency_ps=ns(2_000)),
    LinkFault(ns(20_000), 3),
    FaultPlan.at((ns(30_000), 7), (ns(20_000), 3)),
    TopologySpec("torus", {"rows": 4, "cols": 4}, "4x4 torus"),
    SchemeEntry("itb", "rr", "ITB-RR"),
    CELL,
    TournamentReport(
        schemes=(SchemeEntry("itb", "rr", "ITB-RR"),),
        topologies=(TopologySpec("torus", {"rows": 4}, "4x4 torus"),),
        patterns=("uniform", "hotspot"), seed=3, failures=2,
        cells=(CELL,)),
    STABILITY_CELL,
    StabilityReport(
        topology="torus", topology_label="4x4 torus", seed=3, burst=8,
        fractions=(0.3, 0.6), saturation={"UD": 0.02},
        stable_rate={"UD": 0.015}, cells=(STABILITY_CELL,)),
]


def _record_id(record):
    return type(record).__name__


class TestRecordCodec:
    def test_every_record_class_has_a_sample(self):
        assert {type(r) for r in RECORDS} == set(PlainData.__subclasses__())

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_samples_leave_no_field_at_its_default(self, record):
        for f in fields(record):
            default = (f.default if f.default_factory is MISSING
                       else f.default_factory())
            if default is not MISSING:
                assert getattr(record, f.name) != default, f.name

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_json_round_trip_is_exact(self, record):
        cls = type(record)
        assert cls.from_dict(_json_round(record.to_dict())) == record

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_unknown_key_names_the_class(self, record):
        cls = type(record)
        data = dict(record.to_dict(), bogus=1)
        with pytest.raises(ValueError, match=f"unknown {cls.__name__}"):
            cls.from_dict(data)

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_non_mapping_is_refused(self, record):
        cls = type(record)
        with pytest.raises(ValueError, match=cls.__name__):
            cls.from_dict([1, 2])
        # and wherever the record nests a mapping or another record
        data = record.to_dict()
        for name, value in data.items():
            if isinstance(value, dict):
                with pytest.raises(ValueError, match="mapping"):
                    cls.from_dict(dict(data, **{name: 3}))

    def test_missing_required_field_is_a_value_error(self):
        with pytest.raises(ValueError, match="LinkFault.*link_id"):
            FaultPlan.from_dict({"faults": [{"t_ps": 1}]})

    def test_format_is_pinned(self):
        """The exact dict a stored record has; a record written before
        the codec was shared reads back to an equal summary."""
        summary = RunSummary(
            config=SimConfig(
                topology="torus",
                topology_kwargs={"rows": 4, "cols": 4,
                                 "hosts_per_switch": 2},
                routing="itb", policy="rr", traffic="hotspot",
                traffic_kwargs={"hotspot": 3, "fraction": 0.1},
                arrival="onoff", arrival_kwargs={"on_fraction": 0.5},
                injection_rate=0.0125, message_bytes=64,
                params=MyrinetParams(slack_buffer_bytes=96,
                                     stop_threshold_bytes=80,
                                     switch_ports=8),
                seed=7, warmup_ps=1_000, measure_ps=5_000,
                max_messages=100, engine="array"),
            offered_flits_ns_switch=0.0125, accepted_flits_ns_switch=0.011,
            messages_delivered=40, messages_generated=42,
            avg_latency_ns=None, avg_network_latency_ns=812.5,
            max_latency_ns=2000.0, avg_itbs_per_message=0.25,
            itb_overflow_count=1, itb_peak_bytes=4096,
            link_utilization=LINKS, backlog_growth=2, messages_dropped=3,
            dropped_in_flight=2, dropped_unroutable=1, retransmissions=4,
            duplicate_deliveries=1, permanent_losses=1,
            recovered_messages=2, reconfigurations=1,
            time_to_recover_ns=None, p99_latency_ns=1500.0)
        search = SaturationResult(0.011, 0.01, float("inf"), [summary],
                                  converged=False)
        assert summary.to_dict() == PINNED_SUMMARY
        assert list(summary.to_dict()) == list(PINNED_SUMMARY)
        assert search.to_dict() == {
            "throughput": 0.011, "last_stable_rate": 0.01,
            "first_saturated_rate": float("inf"),
            "runs": [PINNED_SUMMARY], "converged": False}
        assert RunSummary.from_dict(PINNED_SUMMARY) == summary
        assert SaturationResult.from_dict(
            json.loads(json.dumps(search.to_dict()))) == search


#: ``RunSummary.to_dict()`` of ``test_format_is_pinned``'s summary, as
#: the hand-written codec wrote it
PINNED_SUMMARY = {
    "config": {
        "topology": "torus",
        "topology_kwargs": {"rows": 4, "cols": 4, "hosts_per_switch": 2},
        "routing": "itb",
        "policy": "rr",
        "traffic": "hotspot",
        "traffic_kwargs": {"hotspot": 3, "fraction": 0.1},
        "arrival": "onoff",
        "arrival_kwargs": {"on_fraction": 0.5},
        "injection_rate": 0.0125,
        "message_bytes": 64,
        "params": {"flit_cycle_ps": 6250,
                   "link_prop_ps": 49200,
                   "routing_delay_ps": 150000,
                   "slack_buffer_bytes": 96,
                   "stop_threshold_bytes": 80,
                   "go_threshold_bytes": 40,
                   "itb_detect_ps": 275000,
                   "itb_dma_setup_ps": 200000,
                   "itb_pool_bytes": 92160,
                   "itb_overflow_penalty_ps": 2000000,
                   "nic_memory_bytes": 4194304,
                   "switch_ports": 8,
                   "max_routes_per_pair": 10},
        "seed": 7,
        "warmup_ps": 1000,
        "measure_ps": 5000,
        "max_messages": 100,
        "engine": "array"},
    "offered_flits_ns_switch": 0.0125,
    "accepted_flits_ns_switch": 0.011,
    "messages_delivered": 40,
    "messages_generated": 42,
    "avg_latency_ns": None,
    "avg_network_latency_ns": 812.5,
    "max_latency_ns": 2000.0,
    "avg_itbs_per_message": 0.25,
    "itb_overflow_count": 1,
    "itb_peak_bytes": 4096,
    "link_utilization": {"window_ps": 5000,
                         "channel_ends": [[0, 1, 0], [1, 0, 0]],
                         "utilization": [0.25, 0.5],
                         "reserved": [0.375, 0.625],
                         "per_link": [0.5]},
    "backlog_growth": 2,
    "messages_dropped": 3,
    "dropped_in_flight": 2,
    "dropped_unroutable": 1,
    "retransmissions": 4,
    "duplicate_deliveries": 1,
    "permanent_losses": 1,
    "recovered_messages": 2,
    "reconfigurations": 1,
    "time_to_recover_ns": None,
    "p99_latency_ns": 1500.0,
}
