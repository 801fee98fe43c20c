"""Sweeps, profiles, the experiment registry and tables machinery."""

import dataclasses
import json
import math

import pytest

import repro.experiments.runner as runner_mod
from repro.config import PAPER_PARAMS, SimConfig
from repro.experiments import adversary, tournament
from repro.experiments.profiles import BENCH, PAPER, TEST, Profile
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import run_simulation
from repro.experiments.sweep import (SATURATION_TASK_FN, saturation_task,
                                     search_all, sweep_rates)
from repro.experiments.tables import pick_hotspots
from repro.metrics.saturation import SaturationResult, find_saturation
from repro.orchestrator import CampaignError, Executor, ResultStore
from repro.orchestrator.pool import POINT_TASK_FN
from repro.resilience import campaign as resilience
from repro.units import ns
from tests.conftest import RecordingExecutor, small_config
from tests.test_metrics import synthetic_run_at

T33 = {"rows": 3, "cols": 3, "hosts_per_switch": 2}


class TestSweep:
    def test_curve_shape(self):
        base = small_config(measure_ps=ns(150_000))
        res = sweep_rates(base, [0.005, 0.02, 0.08])
        assert res.label == "ITB-RR"
        assert res.rates == sorted(res.rates)
        assert len(res.runs) >= 2
        # latency must be non-decreasing in offered load (modulo noise)
        lats = [l for l in res.latencies_ns if l is not None]
        assert lats[-1] > lats[0]

    def test_stops_after_saturation(self):
        base = small_config(measure_ps=ns(100_000))
        res = sweep_rates(base, [0.01, 0.3, 0.5, 0.7, 0.9],
                          stop_after_saturation=1)
        # at most (first saturated + 1 more) simulated
        n_sat = sum(1 for r in res.runs if r.saturated)
        assert n_sat <= 2
        assert len(res.runs) < 5

    def test_throughput_and_saturation_rate(self):
        base = small_config(measure_ps=ns(100_000))
        res = sweep_rates(base, [0.01, 0.5])
        assert res.saturation_rate() == 0.5
        # throughput is the knee: the best *non-saturated* point
        stable = [r.accepted_flits_ns_switch for r in res.runs
                  if not r.saturated]
        assert res.throughput() == max(stable)

    def test_throughput_fallback_when_all_saturated(self):
        base = small_config(measure_ps=ns(100_000))
        res = sweep_rates(base, [0.5, 0.9])
        assert all(r.saturated for r in res.runs)
        assert res.throughput() == max(res.accepted)


    @pytest.mark.parametrize("workers", [None, 2])
    def test_equals_direct_run_simulation_calls(self, workers):
        """The one path against the real reference: the curve is the
        list of direct runs, cut by the early-stop rule, at any width."""
        base = small_config(warmup_ps=ns(10_000), measure_ps=ns(40_000))
        rates = [0.5, 0.004, 0.3, 0.4, 0.6]
        expected, sat_seen = [], 0
        for rate in sorted(rates):
            summary = run_simulation(
                base.with_overrides(injection_rate=rate))
            expected.append(summary.to_dict())
            sat_seen += summary.saturated
            if sat_seen > 1:
                break
        assert 2 <= len(expected) < len(rates)  # the stop actually fired
        executor = Executor(workers=workers) if workers else None
        res = sweep_rates(base, rates, stop_after_saturation=1,
                          executor=executor)
        assert [r.to_dict() for r in res.runs] == expected

    def test_failing_point_names_itself(self):
        bad = small_config(traffic_kwargs={"nonsense": 1})
        with pytest.raises(CampaignError) as err:
            sweep_rates(bad, [0.004])
        text = str(err.value)
        assert "1 of 1 points failed" in text
        assert "ITB-RR @ 0.004 (torus/uniform)" in text
        with pytest.raises(Exception) as direct:
            run_simulation(bad.with_overrides(injection_rate=0.004))
        assert f"{type(direct.value).__name__}: {direct.value}" in text

    def test_keyboard_interrupt_reaches_the_caller(self, monkeypatch):
        def interrupted(config, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(runner_mod, "run_simulation", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sweep_rates(small_config(), [0.004])

    def test_live_objects_are_refused(self, tmp_path):
        """What holds a live object or touches the local machine goes
        to run_simulation() directly, never through an executor."""
        target = tmp_path / "profile.out"
        for option, value in (("tables", object()),
                              ("perf", [].append),
                              ("profile_path", str(target))):
            with pytest.raises(ValueError, match="run_simulation"):
                sweep_rates(small_config(), [0.004], **{option: value})
        assert not target.exists()


TORUS33 = tournament.TopologySpec("torus", T33, "torus 3x3")

#: each study at its smallest: a 3x3 torus, or Table 3 (three cells)
STUDIES = {
    "tables": lambda ex: run_experiment("table3", TEST, executor=ex),
    "tournament": lambda ex: tournament.run_tournament(
        tournament.default_entries(["itb"]), (TORUS33,),
        ("uniform+onoff",), TEST, failures=1, executor=ex),
    "adversary": lambda ex: adversary.run_adversary_study(
        (("itb", "rr"),), "torus", T33, "torus 3x3", TEST, burst=4,
        fractions=(0.5,), executor=ex),
    "resilience": lambda ex: resilience.run_resilience(
        "torus", TEST, ks=(1,), topology_kwargs=T33, start_rate=0.01,
        executor=ex),
}


class TestCellPayload:
    """Every study cell ships its whole ``SimConfig``, whichever of the
    two task kinds carries it."""

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_base_is_a_whole_simconfig(self, study):
        executor = RecordingExecutor()
        STUDIES[study](executor)
        assert {fn for fn, _ in executor.sent} <= \
            {POINT_TASK_FN, SATURATION_TASK_FN}
        assert executor.payloads(SATURATION_TASK_FN)
        for fn, payload in executor.sent:
            assert json.loads(json.dumps(payload)) == payload
            base = SimConfig.from_dict(payload["config"])
            base.validate()
            assert payload["config"] == base.to_dict()
            assert set(payload["config"]) == \
                {f.name for f in dataclasses.fields(SimConfig)}
            if fn == SATURATION_TASK_FN:
                assert base.measure_ps == TEST.sat_measure_ps
                assert set(payload["search"]) == \
                    {"start_rate", "growth", "refine_steps"}

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_rerun_simulates_nothing(self, study, tmp_path):
        """Every simulation a study runs is an executor task: a second
        run against the same store is all cache hits, same report."""
        first = Executor(store=ResultStore(tmp_path))
        report = STUDIES[study](first)
        assert first.stats.simulated > 0 and first.stats.cached == 0
        second = Executor(store=ResultStore(tmp_path))
        assert STUDIES[study](second) == report
        assert second.stats.simulated == 0
        assert second.stats.cached == first.stats.simulated


class TestSaturationTask:
    """The ``saturation`` kind: a point's payload plus a search in, one
    ``SaturationResult`` dict out."""

    CFG = small_config(
        engine="array", message_bytes=256,
        params=PAPER_PARAMS.with_overrides(max_routes_per_pair=4),
        warmup_ps=ns(10_000), measure_ps=ns(40_000))

    @pytest.fixture(scope="class")
    def payload(self):
        executor = RecordingExecutor()
        search_all([self.CFG], TEST, 0.3, executor=executor, root=1)
        (payload,) = executor.payloads(SATURATION_TASK_FN)
        return json.loads(json.dumps(payload))

    def test_payload_is_a_points_plus_a_search(self, payload):
        assert payload == {
            "config": self.CFG.to_dict(), "runner_kwargs": {"root": 1},
            "search": {"start_rate": 0.3, "growth": TEST.sat_growth,
                       "refine_steps": TEST.sat_refine_steps}}
        assert set(payload["config"]) == \
            {f.name for f in dataclasses.fields(SimConfig)}

    def test_every_probe_runs_the_config_it_was_given(self, payload):
        """engine / message_bytes / params reach every probe run."""
        sat = SaturationResult.from_dict(saturation_task(payload))
        assert len(sat.runs) >= 2
        for run in sat.runs:
            assert run.config == self.CFG.with_overrides(
                injection_rate=run.config.injection_rate)

    def test_two_calls_give_equal_json(self, payload):
        assert json.dumps(saturation_task(payload)) == \
            json.dumps(saturation_task(payload))

    @pytest.mark.parametrize("capacity, kwargs", [
        (0.03, {}),
        (1e9, {"max_rate": 0.1}),         # first_saturated_rate = inf
        (1e-9, {"max_down_steps": 4}),    # last_stable_rate = nan
    ], ids=["bracketed", "never-saturates", "never-stable"])
    def test_result_round_trip_is_exact(self, capacity, kwargs):
        sat = find_saturation(synthetic_run_at(capacity), 0.005, **kwargs)
        back = SaturationResult.from_dict(
            json.loads(json.dumps(sat.to_dict())))
        assert back.runs == sat.runs and back.converged is sat.converged
        assert back.throughput == sat.throughput
        assert back.first_saturated_rate == sat.first_saturated_rate
        assert back.last_stable_rate == sat.last_stable_rate or (
            math.isnan(back.last_stable_rate)
            and math.isnan(sat.last_stable_rate))
        assert json.dumps(back.to_dict()) == json.dumps(sat.to_dict())

    def test_live_objects_are_refused(self, tmp_path):
        target = tmp_path / "profile.out"
        with pytest.raises(ValueError, match="run_simulation"):
            search_all([self.CFG], TEST, 0.3, profile_path=str(target))
        assert not target.exists()


class TestProfiles:
    def test_registry_profiles(self):
        for p in (BENCH, PAPER, TEST):
            assert isinstance(p, Profile)
            assert p.measure_ps > 0

    def test_thin_keeps_last(self):
        rates = [0.01, 0.02, 0.03, 0.04, 0.05]
        thinned = BENCH.thin(rates)  # stride 2
        assert thinned[0] == 0.01
        assert thinned[-1] == 0.05
        assert len(thinned) < len(rates)

    def test_thin_stride_one_identity(self):
        rates = [0.01, 0.02, 0.03]
        assert PAPER.thin(rates) == rates


class TestRegistry:
    def test_all_artifacts_registered(self):
        expected = {"fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10a",
                    "fig10b", "fig11", "fig12a", "fig12b", "fig12c",
                    "table1", "table2", "table3", "irregular", "mesh-dor",
                    "itb-overhead", "route-cap", "root-placement",
                    "msglen", "adaptive", "link-failure",
                    "resilience", "recovery", "tournament", "adversary"}
        assert set(EXPERIMENTS) == expected

    def test_kinds(self):
        assert EXPERIMENTS["fig7a"].kind == "latency-panel"
        assert EXPERIMENTS["mesh-dor"].kind == "latency-panel"
        assert EXPERIMENTS["fig8"].kind == "link-map"
        assert EXPERIMENTS["table1"].kind == "hotspot-table"
        assert EXPERIMENTS["recovery"].kind == "recovery-table"
        kinds = [exp.kind for _, exp in EXPERIMENTS.items()]
        assert set(kinds) == {
            "latency-panel", "link-map", "hotspot-table", "point-table",
            "resilience-table", "recovery-table", "tournament-table",
            "stability-table"}
        assert kinds.count("point-table") == 6

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99", TEST)


class TestHotspotPicks:
    def test_deterministic(self):
        a = pick_hotspots("torus", 5)
        b = pick_hotspots("torus", 5)
        assert a == b

    def test_distinct_and_in_range(self):
        locs = pick_hotspots("torus", 10)
        assert len(set(locs)) == 10
        assert all(0 <= h < 512 for h in locs)

    def test_seed_changes_picks(self):
        assert pick_hotspots("torus", 5, seed=1) != \
            pick_hotspots("torus", 5, seed=2)
