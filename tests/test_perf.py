"""Perf instrumentation: reports, profiler, and the bench gate."""

import json
import pstats
import subprocess
import sys
from pathlib import Path

from repro.config import SimConfig
from repro.experiments.runner import run_simulation
from repro.perf import PerfReport, profile_to
from repro.units import ns

CFG = SimConfig(topology="torus",
                topology_kwargs={"rows": 4, "cols": 4,
                                 "hosts_per_switch": 2},
                routing="itb", policy="rr", traffic="uniform",
                injection_rate=0.01, seed=3,
                warmup_ps=ns(20_000), measure_ps=ns(60_000))

REPO = Path(__file__).resolve().parent.parent


class TestPerfRecorder:
    def test_run_simulation_fills_report(self):
        reports = []
        summary = run_simulation(CFG, perf=reports.append)
        (r,) = reports                  # exactly one report per call
        assert r.events > 0
        assert r.sim_time_ps == CFG.warmup_ps + CFG.measure_ps
        assert r.messages_delivered >= summary.messages_delivered
        assert r.wall_s >= r.sim_wall_s > 0
        assert r.setup_wall_s >= 0
        assert r.events_per_s > 0
        assert r.messages_per_s > 0
        # the oneline and dict views agree with the raw fields
        assert str(r.events) in r.oneline().replace(",", "")
        assert r.to_dict()["events"] == r.events

    def test_report_names_the_table_build(self):
        """``tables_wall_s`` is the table build inside set-up: real on a
        cold run, ~0 on a memo hit, shown by both views."""
        reports = []
        run_simulation(CFG, perf=reports.append)   # caches cleared per test
        run_simulation(CFG, perf=reports.append)   # same tables, memoised
        cold, warm = reports
        assert warm.tables_wall_s < cold.tables_wall_s / 10
        assert cold.to_dict()["tables_wall_s"] == round(cold.tables_wall_s, 6)
        assert (f"setup {cold.setup_wall_s:.3f}s "
                f"(tables {cold.tables_wall_s:.3f}s)") in cold.oneline()

    def test_report_names_the_schedule(self):
        """``schedule_wall_s`` is ``pregenerate``: real for the first
        scheme of a comparison, ~0 for every later scheme offered the
        same traffic (memo hit), whatever the engine -- and no longer
        booked to the loop."""
        reports = []
        for routing, policy in (("updown", "sp"), ("itb", "sp"),
                                ("itb", "rr")):
            run_simulation(CFG.with_overrides(engine="array",
                                              routing=routing,
                                              policy=policy),
                           perf=reports.append)
        first, second, third = reports
        assert first.schedule_wall_s > 0
        assert second.schedule_wall_s < first.schedule_wall_s / 10
        assert third.schedule_wall_s < first.schedule_wall_s / 10
        for r in reports:
            assert r.wall_s >= (r.setup_wall_s + r.schedule_wall_s
                                + r.sim_wall_s) * 0.999
        assert (first.to_dict()["schedule_wall_s"]
                == round(first.schedule_wall_s, 6))
        assert (f"(tables {first.tables_wall_s:.3f}s) "
                f"+ schedule {first.schedule_wall_s:.3f}s "
                f"+ loop {first.sim_wall_s:.3f}s") in first.oneline()
        run_simulation(CFG, perf=reports.append)   # packet: replays it
        assert reports[-1].schedule_wall_s < first.schedule_wall_s / 10

    def test_perf_does_not_change_results(self):
        plain = run_simulation(CFG)
        with_perf = run_simulation(CFG, perf=[].append)
        assert plain == with_perf

    def test_simulator_counters(self):
        reports = []
        run_simulation(CFG, perf=reports.append)
        # Simulator-side counters feed the report; rates only exist
        # once some loop wall-clock has accumulated
        assert reports[0].events_per_s > 0

    def test_zero_wall_rates(self):
        r = PerfReport(wall_s=0.0, setup_wall_s=0.0, sim_wall_s=0.0,
                       events=0, messages_delivered=0, sim_time_ps=0)
        assert r.events_per_s == 0.0
        assert r.messages_per_s == 0.0


class TestProfileTo:
    def test_dumps_loadable_stats(self, tmp_path):
        out = tmp_path / "prof.out"
        run_simulation(CFG, profile_path=str(out))
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_none_is_noop(self):
        with profile_to(None):
            pass
        with profile_to(""):
            pass


class TestBenchRegressionGate:
    CHECKER = REPO / "scripts" / "check_bench_regression.py"

    @staticmethod
    def _bench_file(path: Path, cold_wall_s: float = 1.0,
                    tables_wall_s: float = 0.5,
                    route_legs: int = 100, events: int = 1000,
                    run_peak_kb: int = 1000, **rates) -> Path:
        """Synthetic bench JSON; a point's value is its events/s (its
        messages/s then scales with it) or an explicit
        ``(events_per_s, messages_per_s)`` pair.  Each point delivers
        10 messages, so ``events`` below 10 makes it a batch point."""
        points = []
        for name, rate in rates.items():
            ev, msgs = rate if isinstance(rate, tuple) else (rate, rate / 5)
            points.append({"name": name, "engine": "packet",
                           "cold_wall_s": cold_wall_s,
                           "tables_wall_s": tables_wall_s,
                           "best_loop_wall_s": 0.5,
                           "events": events, "events_per_s": ev,
                           "messages_delivered": 10,
                           "messages_per_s": msgs,
                           "route_legs": route_legs,
                           "run_peak_kb": run_peak_kb})
        path.write_text(json.dumps(
            {"schema": 1, "repeats": 1, "points": points}))
        return path

    def _run(self, current: Path, baseline: Path):
        return subprocess.run(
            [sys.executable, str(self.CHECKER), str(current),
             str(baseline)], capture_output=True, text=True)

    def test_within_tolerance_passes(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0, b=200.0)
        cur = self._bench_file(tmp_path / "cur.json", a=80.0, b=190.0)
        res = self._run(cur, base)
        assert res.returncode == 0, res.stdout + res.stderr

    def test_large_regression_fails(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0, b=200.0)
        cur = self._bench_file(tmp_path / "cur.json", a=60.0, b=190.0)
        res = self._run(cur, base)
        assert res.returncode == 1
        assert "REGRESSED" in res.stdout

    def test_messages_only_regression_fails(self, tmp_path):
        # events/s steady but messages/s collapsed: the event loop kept
        # its pace while doing less useful work per event -- gated too
        base = self._bench_file(tmp_path / "base.json", a=(100.0, 100.0))
        cur = self._bench_file(tmp_path / "cur.json", a=(100.0, 60.0))
        res = self._run(cur, base)
        assert res.returncode == 1
        assert "REGRESSED" in res.stdout

    def test_cold_wall_doubling_fails(self, tmp_path):
        # throughput steady, but the cold (table-building) run takes
        # 2.5x the baseline: a per-pair table build grown back
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        cur = self._bench_file(tmp_path / "cur.json", cold_wall_s=2.5,
                               a=100.0)
        res = self._run(cur, base)
        assert res.returncode == 1
        assert "cold_wall_s" in res.stdout and "REGRESSED" in res.stdout

    def test_cold_wall_noise_passes(self, tmp_path):
        # single-shot timing: 1.8x is noise, not a regression -- and a
        # 10 ms point may triple within the absolute grace
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        cur = self._bench_file(tmp_path / "cur.json", cold_wall_s=1.8,
                               a=100.0)
        assert self._run(cur, base).returncode == 0
        base = self._bench_file(tmp_path / "base.json", cold_wall_s=0.01,
                                a=100.0)
        cur = self._bench_file(tmp_path / "cur.json", cold_wall_s=0.03,
                               a=100.0)
        assert self._run(cur, base).returncode == 0

    def test_table_build_doubling_fails(self, tmp_path):
        # the cold run within its ceiling, but its table build beyond
        # 2x + 50 ms: the part of it that slid back is named
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        within = self._bench_file(tmp_path / "within.json",
                                  tables_wall_s=1.04, a=100.0)
        assert self._run(within, base).returncode == 0
        more = self._bench_file(tmp_path / "more.json", tables_wall_s=1.06,
                                a=100.0)
        res = self._run(more, base)
        assert res.returncode == 1
        assert [line.split()[1] for line in res.stdout.splitlines()
                if "REGRESSED" in line] == ["tables_wall_s"]

    def test_one_more_route_leg_fails(self, tmp_path):
        # the leg count is deterministic: fewer passes, any growth (a
        # table that stopped sharing legs between pairs) fails
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        fewer = self._bench_file(tmp_path / "fewer.json", route_legs=90,
                                 a=100.0)
        assert self._run(fewer, base).returncode == 0
        more = self._bench_file(tmp_path / "more.json", route_legs=101,
                                a=100.0)
        res = self._run(more, base)
        assert res.returncode == 1
        assert "route_legs" in res.stdout and "REGRESSED" in res.stdout

    def test_run_peak_beyond_a_quarter_fails(self, tmp_path):
        # a warm run's traced peak: +25 % passes, more fails -- per-key
        # arbitration state allocated up front grows it by half
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        within = self._bench_file(tmp_path / "within.json",
                                  run_peak_kb=1250, a=100.0)
        assert self._run(within, base).returncode == 0
        more = self._bench_file(tmp_path / "more.json", run_peak_kb=1251,
                                a=100.0)
        res = self._run(more, base)
        assert res.returncode == 1
        assert "run_peak_kb" in res.stdout and "REGRESSED" in res.stdout

    def test_batch_point_gates_its_event_count(self, tmp_path):
        # fewer events than messages: events/s measures nothing (one
        # drain covers many messages) and may collapse, but the exact
        # event count may not grow -- a tick chain growing back
        base = self._bench_file(tmp_path / "base.json", events=3,
                                a=(100.0, 100.0))
        fewer = self._bench_file(tmp_path / "fewer.json", events=1,
                                 a=(1.0, 100.0))
        res = self._run(fewer, base)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "events_per_s" not in res.stdout
        more = self._bench_file(tmp_path / "more.json", events=4,
                                a=(100.0, 100.0))
        res = self._run(more, base)
        assert res.returncode == 1
        assert "events" in res.stdout and "REGRESSED" in res.stdout

    def test_event_driven_point_gates_its_event_count(self, tmp_path):
        # events/s is gated with a tolerance, the event count exactly:
        # a release drifting back onto the heap adds events and may
        # even raise events/s, so only the count shows it
        base = self._bench_file(tmp_path / "base.json", events=1000,
                                a=100.0)
        fewer = self._bench_file(tmp_path / "fewer.json", events=700,
                                 a=(75.0, 20.0))
        res = self._run(fewer, base)
        assert res.returncode == 0, res.stdout + res.stderr
        more = self._bench_file(tmp_path / "more.json", events=1001,
                                a=(120.0, 20.0))
        res = self._run(more, base)
        assert res.returncode == 1
        assert [line.split()[1] for line in res.stdout.splitlines()
                if "REGRESSED" in line] == ["events"]

    def test_missing_point_fails(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0, b=200.0)
        cur = self._bench_file(tmp_path / "cur.json", a=100.0)
        res = self._run(cur, base)
        assert res.returncode == 1
        assert "MISSING" in res.stdout

    def test_extra_point_fails(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        cur = self._bench_file(tmp_path / "cur.json", a=100.0, b=50.0)
        res = self._run(cur, base)
        assert res.returncode == 1
        assert "not in baseline" in res.stderr

    def test_committed_baseline_is_valid(self):
        baseline = REPO / "benchmarks" / "BENCH_sim_core.json"
        data = json.loads(baseline.read_text())
        points = {p["name"]: p for p in data["points"]}
        assert {"packet-paper", "array-paper", "array-updown", "flit-paper",
                "packet-val", "flit-val", "array-val"} <= set(points)
        assert all(p["events_per_s"] > 0 for p in data["points"])
        assert all(p["messages_per_s"] > 0 for p in data["points"])
        assert all(p["route_legs"] > 0 for p in data["points"])
        assert all(0 < p["tables_wall_s"] < p["cold_wall_s"]
                   for p in data["points"])
        assert all(p["run_peak_kb"] > 0 for p in data["points"])
        assert {"packet", "flit", "array"} == {p["engine"]
                                              for p in data["points"]}

    def test_committed_baseline_shows_array_speedup(self):
        # the array engine's reason to exist: >= 10x the packet engine
        # on the paper-scale workload.  Events/s cannot compare engines
        # (batch ticks collapse thousands of events), so the committed
        # baseline must show the gap on messages/s -- as the median of
        # ratios taken in paired repeats (benchmarks/sim_core.py
        # array_speedup), not as two best-of-N figures timed apart
        baseline = REPO / "benchmarks" / "BENCH_sim_core.json"
        assert json.loads(baseline.read_text())["array_speedup"] >= 10

    def test_missing_file_gives_clear_error(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        res = self._run(tmp_path / "nope.json", base)
        assert res.returncode != 0
        assert "cannot read benchmark file" in res.stderr
        assert "Traceback" not in res.stderr

    def test_bad_json_gives_clear_error(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        res = self._run(broken, base)
        assert res.returncode != 0
        assert "not valid JSON" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_points_key_gives_clear_error(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": 1}))
        res = self._run(wrong, base)
        assert res.returncode != 0
        assert "no 'points' key" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_point_keys_give_clear_error(self, tmp_path):
        base = self._bench_file(tmp_path / "base.json", a=100.0)
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(
            {"points": [{"name": "a"}]}))  # no events_per_s
        res = self._run(partial, base)
        assert res.returncode != 0
        assert "events_per_s" in res.stderr
        assert "Traceback" not in res.stderr
