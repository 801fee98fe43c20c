"""End-to-end runner integration on small networks."""

import gc
import inspect
import weakref

import pytest

from repro.config import RUN_OPTIONS
from repro import runner
from repro.runner import (_freeze_kwargs, _GRAPH_CACHE,
                          _TABLE_CACHE, clear_caches,
                          get_graph, get_tables,
                          run_point_task, run_simulation)
from repro.units import ns
from tests.conftest import UNDECLARED_RUN_OPTIONS, small_config


class TestRunSimulation:
    def test_basic_run(self):
        s = run_simulation(small_config())
        assert s.messages_delivered > 0
        assert s.avg_latency_ns is not None and s.avg_latency_ns > 0
        assert s.accepted_flits_ns_switch > 0
        assert s.offered_flits_ns_switch == 0.01

    def test_low_load_accepted_tracks_offered(self):
        # long window so enough messages land for a stable rate estimate
        s = run_simulation(small_config(
            injection_rate=0.005, measure_ps=ns(600_000)))
        assert not s.saturated
        assert s.accepted_flits_ns_switch == \
            pytest.approx(0.005, rel=0.12)

    def test_network_latency_below_total(self):
        s = run_simulation(small_config(injection_rate=0.02))
        assert s.avg_network_latency_ns <= s.avg_latency_ns

    def test_deterministic_per_seed(self):
        a = run_simulation(small_config(seed=9))
        b = run_simulation(small_config(seed=9))
        assert a.messages_delivered == b.messages_delivered
        assert a.avg_latency_ns == b.avg_latency_ns
        assert a.accepted_flits_ns_switch == b.accepted_flits_ns_switch

    def test_seed_changes_results(self):
        a = run_simulation(small_config(seed=1))
        b = run_simulation(small_config(seed=2))
        assert a.avg_latency_ns != b.avg_latency_ns

    def test_updown_zero_itbs(self):
        s = run_simulation(small_config(routing="updown", policy="sp"))
        assert s.avg_itbs_per_message == 0.0
        assert s.itb_peak_bytes == 0

    def test_link_stats_collected_on_request(self):
        s = run_simulation(small_config(), collect_links=True)
        assert s.link_utilization is not None
        u = s.link_utilization
        assert len(u.per_link) == 32  # 4x4 torus links
        assert 0 <= max(u.per_link) <= 1.0

    def test_no_link_stats_by_default(self):
        s = run_simulation(small_config())
        assert s.link_utilization is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(small_config(injection_rate=-1))

    def test_reserved_at_least_utilization(self):
        s = run_simulation(small_config(injection_rate=0.03),
                           collect_links=True)
        u = s.link_utilization
        assert all(x >= -1e-9 for x in u.blocked_fraction())

    def test_higher_load_higher_latency(self):
        lo = run_simulation(small_config(injection_rate=0.004))
        hi = run_simulation(small_config(injection_rate=0.04))
        assert hi.avg_latency_ns > lo.avg_latency_ns

    def test_saturation_flag_under_overload(self):
        s = run_simulation(small_config(
            injection_rate=1.0,
            warmup_ps=ns(30_000), measure_ps=ns(100_000)))
        assert s.saturated


class TestTeardown:
    """A finished run frees its network by reference count:
    ``run_simulation`` cuts the sim/network/transport cycles itself
    instead of leaving them to a later full collection -- and leaves
    no cyclic garbage behind at all (a collection finds nothing)."""

    @pytest.fixture
    def networks(self, monkeypatch):
        """Weak references to each run's network and traffic process."""
        refs = []
        for name in ("make_network", "TrafficProcess"):
            real = getattr(runner, name)

            def spy(*args, _real=real, **kwargs):
                made = _real(*args, **kwargs)
                refs.append(weakref.ref(made))
                return made
            monkeypatch.setattr(runner, name, spy)
        gc.collect()
        gc.disable()
        yield refs
        gc.enable()

    FAULTS = {"faults": [{"t_ps": ns(30_000), "link_id": 3}]}

    @pytest.mark.parametrize("engine,overrides,kwargs", [
        ("packet", {}, {}),
        ("array", {}, {}),
        ("flit", {"measure_ps": ns(20_000)}, {}),
        # saturated: arbitration requests still queued at the end
        ("packet", {"injection_rate": 0.3}, {}),
        ("array", {"injection_rate": 0.3}, {}),
        ("packet", {}, {"reliable": True}),
        ("packet", {}, {"fault_plan": FAULTS}),
        ("packet", {}, {"reliable": True, "reconfig": True,
                        "fault_plan": FAULTS}),
    ], ids=["packet", "array", "flit", "packet-saturated",
            "array-saturated", "reliable", "fault-plan",
            "reliable+reconfig+faults"])
    def test_network_is_dead_on_return(self, networks, engine, overrides,
                                       kwargs):
        summary = run_simulation(small_config(engine=engine, **overrides),
                                 **kwargs)
        assert summary.messages_delivered > 0
        # the traffic process too: a bound method of it kept on itself
        # would be a process -> method -> process cycle outliving the run
        network, traffic = networks
        assert network() is None
        assert traffic() is None
        assert gc.collect() == 0

    def test_simulator_clear(self):
        from repro.sim import Simulator
        sim = Simulator()
        fired = []
        sim.at(10, fired.append, 1)
        sim.set_watchdog(5, lambda: fired.append("dog"))
        sim.clear()
        assert sim.pending_events == 0
        sim.run_until(100)
        assert fired == [] and sim.now == 100
        sim.at(150, fired.append, 2)        # still usable afterwards
        sim.run_until_idle()
        assert fired == [2]


class TestCaches:
    def test_graph_cache_hits(self):
        clear_caches()
        g1 = get_graph("torus", {"rows": 4, "cols": 4,
                                 "hosts_per_switch": 2})
        g2 = get_graph("torus", {"rows": 4, "cols": 4,
                                 "hosts_per_switch": 2})
        assert g1 is g2

    def test_graph_cache_distinguishes_kwargs(self):
        g1 = get_graph("torus", {"rows": 4, "cols": 4,
                                 "hosts_per_switch": 2})
        g2 = get_graph("torus", {"rows": 4, "cols": 4,
                                 "hosts_per_switch": 1})
        assert g1 is not g2

    def test_table_cache_hits(self):
        kwargs = {"rows": 4, "cols": 4, "hosts_per_switch": 2}
        t1 = get_tables("torus", kwargs, "itb")
        t2 = get_tables("torus", dict(reversed(kwargs.items())), "itb")
        assert t1 is t2
        t3 = get_tables("torus", kwargs, "updown")
        assert t3 is not t1

    def test_clear(self):
        g1 = get_graph("cplant", {})
        clear_caches()
        g2 = get_graph("cplant", {})
        assert g1 is not g2

    def test_clear_empties_both_caches(self):
        clear_caches()
        get_tables("torus", {"rows": 4, "cols": 4,
                             "hosts_per_switch": 2}, "itb")
        assert _GRAPH_CACHE and _TABLE_CACHE
        clear_caches()
        assert not _GRAPH_CACHE and not _TABLE_CACHE

    def test_caches_are_capped_and_evicted_entries_rebuild_identically(
            self):
        clear_caches()
        kwargs = [{"rows": n, "cols": 2, "hosts_per_switch": 1}
                  for n in range(2, runner._GRAPH_CACHE_MAX + 3)]
        graphs = [get_graph("torus", kw) for kw in kwargs]
        assert len(_GRAPH_CACHE) == runner._GRAPH_CACHE_MAX
        again = get_graph("torus", kwargs[0])   # the oldest was evicted
        assert again is not graphs[0]
        assert again.links == graphs[0].links
        assert get_graph("torus", kwargs[-1]) is graphs[-1]

        kw = {"rows": 3, "cols": 3, "hosts_per_switch": 1}
        caps = range(1, runner._TABLE_CACHE_MAX + 2)
        tables = [get_tables("torus", kw, "itb", max_routes_per_pair=cap)
                  for cap in caps]
        assert len(_TABLE_CACHE) == runner._TABLE_CACHE_MAX
        again = get_tables("torus", kw, "itb", max_routes_per_pair=caps[0])
        assert again is not tables[0]
        assert again.routes == tables[0].routes

    def test_freeze_kwargs_nested_values_hashable(self):
        # nested dict/list topology kwargs used to raise
        # "unhashable type: 'dict'" when keying the memo caches
        a = _freeze_kwargs({"grid": {"rows": 4, "cols": [2, 2]}, "k": 1})
        b = _freeze_kwargs({"k": 1, "grid": {"cols": [2, 2], "rows": 4}})
        assert a == b
        assert {a: "cached"}[b] == "cached"

    def test_freeze_kwargs_flat_shape_unchanged(self):
        # flat kwargs keep the historical (key, value) tuple shape that
        # existing cache keys (and tests) are built from
        assert _freeze_kwargs({"rows": 4, "cols": 4}) == \
            (("cols", 4), ("rows", 4))

    def test_table_cache_distinguishes_root(self):
        kwargs = {"rows": 4, "cols": 4, "hosts_per_switch": 2}
        t0 = get_tables("torus", kwargs, "itb", root=0)
        t1 = get_tables("torus", kwargs, "itb", root=1)
        assert t0 is not t1
        assert get_tables("torus", kwargs, "itb", root=0) is t0


class TestRunOptions:
    """One declaration of what may travel with a config."""

    IN_PROCESS_ONLY = ("tables", "perf", "profile_path")

    def test_signature_is_config_plus_declared_options(self):
        params = list(inspect.signature(run_simulation).parameters)
        assert sorted(params) == sorted(
            ("config",) + RUN_OPTIONS + self.IN_PROCESS_ONLY)

    @pytest.mark.parametrize("option", UNDECLARED_RUN_OPTIONS)
    def test_point_door_admits_declared_options_only(self, option,
                                                     tmp_path):
        """A payload that came off a socket reaches ``run_simulation``
        through ``run_point_task`` alone, which checks it again."""
        target = tmp_path / "out"
        payload = {"config": small_config().to_dict(),
                   "runner_kwargs": {option: str(target)}}
        with pytest.raises(ValueError, match="not plain-data run options"):
            run_point_task(payload)
        assert not target.exists()

    def test_point_door_runs_declared_options(self):
        out = run_point_task({"config": small_config().to_dict(),
                              "runner_kwargs": {"collect_links": True}})
        assert out["link_utilization"] is not None
