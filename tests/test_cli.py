"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _executor_kwargs, build_parser, main
from repro.orchestrator import Executor, FabricPool, WorkerPool
from repro.registry import UsageError


def test_cli_import_is_stdlib_only():
    """``repro`` has no runtime dependency: a fresh interpreter that
    imports the whole CLI must not have pulled numpy in (it is a test
    extra only)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    res = subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.topology == "torus"
        assert args.routing == "itb"
        assert args.rate == 0.01

    def test_bad_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "hypercube"])

    def test_sweep_orchestrator_defaults(self):
        """No execution flag given, none is forwarded: the defaults
        are the pool's own."""
        args = build_parser().parse_args(["sweep"])
        assert args.cache_dir == ".repro_cache"
        assert args.no_cache is False
        kwargs = _executor_kwargs(args)
        assert set(kwargs) == {"store"}
        ex = Executor(**kwargs)
        assert ex.workers == 1 and ex.pool.retries == 1
        assert ex.pool.timeout_s is None and ex.pool.retry_backoff_s == 0

    def test_experiment_accepts_workers(self):
        args = build_parser().parse_args(
            ["experiment", "fig7a", "--workers", "4", "--no-cache"])
        assert args.workers == 4 and args.no_cache

    def test_fabric_exec_option(self):
        args = build_parser().parse_args(
            ["sweep", "--fabric", "127.0.0.1:9001,127.0.0.1:9002"])
        assert args.fabric == "127.0.0.1:9001,127.0.0.1:9002"
        assert "fabric" not in build_parser().parse_args(["sweep"])

    def test_fabric_worker_subcommand(self):
        args = build_parser().parse_args(["fabric", "worker"])
        assert args.fabric_cmd == "worker"
        assert args.listen == "127.0.0.1:0"
        assert args.max_sessions is None
        args = build_parser().parse_args(
            ["fabric", "worker", "--listen", "0.0.0.0:9001",
             "--max-sessions", "3"])
        assert args.listen == "0.0.0.0:9001"
        assert args.max_sessions == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fabric", "frobnicate"])

    def test_serve_subcommand(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8651
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--workers", "2",
             "--fabric", "127.0.0.1:9001"])
        assert args.port == 9000
        assert args.workers == 2
        assert args.fabric == "127.0.0.1:9001"

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "info"])
        assert args.cache_cmd == "info"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out and "table3" in out
        assert "latency-panel" in out and "hotspot-table" in out
        # declared parameters, the way `repro traffic` shows them
        assert "radius:int=3" in out
        assert "ks:str=1,2,4" in out

    def test_the_studies_are_experiments_not_verbs(self, capsys):
        for verb in ("resilience", "recovery", "tournament", "chaos"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])
        capsys.readouterr()
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command")
        assert len(sub.choices) == 10

    def test_info_irregular(self, capsys):
        assert main(["info", "irregular"]) == 0
        out = capsys.readouterr().out
        assert "switches" in out
        assert "updown" in out and "itb" in out
        assert "minimal" in out
        # per scheme line, the verdict validate() reached on its tables
        assert out.count("channel dependencies, acyclic") == 3

    def test_run_small(self, capsys):
        rc = main(["run", "--topology", "irregular", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered=0.0100" in out
        assert "delivered" in out

    def test_run_with_links(self, capsys):
        rc = main(["run", "--topology", "irregular", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000",
                   "--links"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link utilisation" in out
        assert "hottest" in out

    @pytest.mark.parametrize("topology", ["torus", "mesh"])
    def test_links_heat_map_has_the_fabric_shape(self, topology, capsys):
        """The per-switch map follows --rows/--cols (it used to be a
        fixed 8x8, and absent for the mesh)."""
        rc = main(["run", "--topology", topology, "--rows", "4",
                   "--cols", "4", "--hosts-per-switch", "2", "--links",
                   "--rate", "0.01", "--warmup-ns", "20000",
                   "--measure-ns", "60000"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, ln in enumerate(lines)
                     if "per switch" in ln) + 1
        rows = [ln.split() for ln in lines[start:]
                if ln.startswith("   ") and "->" not in ln]
        assert [len(r) for r in rows] == [4, 4, 4, 4]
        assert all(any(float(v) > 0 for v in r) for r in rows)

    def test_run_traffic_and_arrival_args(self, capsys):
        rc = main(["run", "--topology", "irregular", "--traffic", "hotspot",
                   "--traffic-arg", "hotspot=3",
                   "--traffic-arg", "fraction=0.2",
                   "--arrival", "onoff", "--arrival-arg", "duty=0.2",
                   "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0

    def test_run_undeclared_traffic_arg_rejected(self, capsys):
        rc = main(["run", "--topology", "irregular",
                   "--traffic-arg", "alpha=2", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 2
        assert "declares no kwarg 'alpha'" in capsys.readouterr().err

    def test_traffic_listing(self, capsys):
        rc = main(["traffic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "destination patterns" in out
        assert "arrival processes" in out
        assert "incast" in out and "adversarial" in out
        assert "power-of-two host count" in out  # capability surfaced
        assert "duty:float=0.25" in out          # declared kwargs surfaced

    def test_info_lists_supported_patterns(self, capsys):
        rc = main(["info", "irregular"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traffic patterns:" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "--topology", "irregular",
                   "--rates", "0.005,0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput (knee)" in out
        assert "0.0050" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, says", [
        (["run", "--traffic", "hotspot", "--traffic-arg", "bogus=1"],
         "declares no kwarg 'bogus'; declared: ['fraction', 'hotspot']"),
        (["experiment", "tournament", "--arg", "schemes=nosuch"],
         "unknown routing scheme 'nosuch'; available: dor, itb"),
        (["experiment", "resilience", "--arg", "ks=x"],
         "ks: not a comma-separated list of int values: 'x'"),
        (["experiment", "tournament", "--arg", "topologies=mutated"],
         "topology 'mutated' requires ['base']"),
        (["experiment", "fig7a", "--arg", "nosuch=1"],
         "experiment 'fig7a' declares no kwarg 'nosuch'; declared: none"),
        (["experiment", "fig12a", "--arg", "radius=far"],
         "kwarg 'radius': not a valid int: 'far'"),
        (["sweep", "--rates", "0.01;0.02"], "--rates: not a comma-separated"),
        (["run", "--rows", "4", "--cols", "4", "--routing", "dor"],
         "routing scheme 'dor' does not support topology 'torus-4x4' "
         "(requires: mesh grid geometry (no wraparound))"),
        (["run", "--rows", "3", "--cols", "3", "--hosts-per-switch", "2",
          "--traffic", "bit-reversal"],
         "traffic pattern 'bit-reversal' does not support topology "
         "'torus-3x3' (requires: power-of-two host count)"),
        (["experiment", "route-cap", "--json", "route-cap.json"],
         "experiment 'route-cap' has no JSON form; --json is for: "
         "adversary, tournament"),
    ], ids=["traffic-arg", "scheme", "comma-list", "topology",
            "experiment-arg", "mistyped-arg", "rates",
            "scheme-on-topology", "pattern-on-topology", "json"])
    def test_a_bad_value_is_one_line_and_exit_2(self, argv, says, capsys):
        """A typo in any value names what is declared or available on
        stderr -- no traceback, nothing simulated."""
        assert main(argv + ["--no-cache"] if argv[0] != "run"
                    else argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro: error: ") and says in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_a_value_error_inside_the_run_keeps_its_traceback(
            self, monkeypatch):
        """Only a refused run *description* (a ``UsageError``) is
        reported in one line; a ``ValueError`` raised once the
        simulation is running is a bug and still raises."""
        import repro.cli

        def run_simulation(cfg, **options):
            raise ValueError("cannot schedule in the past")

        monkeypatch.setattr(repro.cli, "run_simulation", run_simulation)
        with pytest.raises(ValueError, match="schedule in the past"):
            main(["run", "--rate", "0.01"])
        # the description is still checked first, and refused in a line
        assert main(["run", "--arrival-arg", "duty=0.2"]) == 2

    def test_a_failure_inside_the_run_keeps_its_traceback(self):
        """... and so does a point that fails in the executor."""
        from repro.orchestrator import CampaignError
        from repro.orchestrator.lease import TASKS
        from repro.experiments.registry import EXPERIMENTS, Experiment

        def boom(payload):
            """Fails (throwaway registered by test_cli)."""
            raise ValueError("inside the run")

        def study(profile, executor=None):
            return executor.run_tasks("tmp-boom", [{}])

        TASKS.register(boom, "tmp-boom")
        EXPERIMENTS.register(Experiment("tmp-boom", "tmp", "fails inside",
                                        study, render=str))
        try:
            with pytest.raises(CampaignError, match="inside the run"):
                main(["experiment", "tmp-boom", "--no-cache", "--retries",
                      "0"])
        finally:
            EXPERIMENTS.unregister("tmp-boom")
            TASKS.unregister("tmp-boom")

    def test_experiment_smoke(self, capsys):
        assert main(["experiment", "fig7a", "--profile", "test"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "(paper: 0.015)" in out

    def test_experiment_report_ends_with_the_claims(self, capsys):
        """Verdicts close the report from the bench windows up; below
        them (the test profile) a knee is noise and none is given."""
        assert main(["experiment", "fig7a", "--profile", "test",
                     "--no-cache"]) == 0
        assert "-- claims" not in capsys.readouterr().out
        assert main(["experiment", "fig7a", "--profile", "bench",
                     "--plot", "--no-cache"]) == 0
        out = capsys.readouterr().out
        report, _, section = out.rpartition("\n-- claims (")
        assert "accepted traffic" in report      # the plot comes first
        verdicts = section.splitlines()[1:]
        assert verdicts and all(
            line.split()[0] in ("holds", "FAILS") for line in verdicts)
        assert "ITB-SP" in section and "UP/DOWN" in section

    def test_experiment_arg_reaches_the_declared_parameter(self, capsys):
        from repro.experiments.figures import render_figure
        from repro.experiments.profiles import TEST
        from repro.experiments.registry import run_experiment
        assert main(["experiment", "fig12a", "--profile", "test",
                     "--arg", "radius=4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Local traffic (radius 4), 2-D torus" in out
        assert out == render_figure(
            run_experiment("fig12a", TEST, radius=4)) + "\n"
        with pytest.raises(ValueError, match="unknown kwargs"):
            run_experiment("fig12a", TEST, radios=4)
        with pytest.raises(ValueError, match="wants int"):
            run_experiment("fig12a", TEST, radius="4")

    def test_experiment_args_size_a_study(self, capsys):
        assert main(["experiment", "resilience", "--profile", "test",
                     "--arg", "rows=3", "--arg", "cols=3", "--arg", "ks=1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "torus (cols=3, hosts_per_switch=2, rows=3), seed 1" in out
        assert "k=1" in out and "k=2" not in out

    def test_experiment_json(self, tmp_path, capsys):
        import json
        from repro.experiments.profiles import TEST
        from repro.experiments.registry import run_experiment
        args = dict(schemes="itb", topologies="torus", rows=3, cols=3,
                    patterns="uniform", failures=0)
        out = tmp_path / "tournament.json"
        assert main(["experiment", "tournament", "--profile", "test",
                     "--no-cache", "--json", str(out)]
                    + [f"--arg={k}={v}" for k, v in args.items()]) == 0
        assert "JSON artifact written" in capsys.readouterr().err
        report = run_experiment("tournament", TEST, **args)
        assert json.loads(out.read_text()) == \
            json.loads(json.dumps(report.to_dict()))
        # an experiment declaring no JSON form is refused before it runs
        none = tmp_path / "fig.json"
        assert main(["experiment", "route-cap", "--profile", "test",
                     "--no-cache", "--json", str(none)]) == 2
        out, err = capsys.readouterr()
        assert "has no JSON form" in err and out == ""
        assert not none.exists()

    def test_experiment_with_plot(self, capsys):
        assert main(["experiment", "fig7a", "--profile", "test",
                     "--plot"]) == 0
        out = capsys.readouterr().out
        assert "o UP/DOWN" in out
        assert "accepted traffic" in out

    def test_adaptive_policy_accepted(self, capsys):
        rc = main(["run", "--topology", "irregular", "--policy",
                   "adaptive", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0
        assert "ITB-ADAPTIVE" in capsys.readouterr().out


class TestOrchestratorCommands:
    SWEEP = ["sweep", "--rows", "4", "--cols", "4",
             "--hosts-per-switch", "2", "--rates", "0.005,0.01",
             "--warmup-ns", "20000", "--measure-ns", "60000"]

    def test_sweep_no_cache_sequential(self, capsys):
        assert main(self.SWEEP + ["--no-cache"]) == 0
        out, err = capsys.readouterr()
        assert "throughput (knee)" in out
        assert "points: 2 simulated, 0 from cache" in out
        # one worker: each rate is its own wave, reported as it lands
        assert "[1/1] ITB-RR @ 0.005 (torus/uniform): done" in err
        assert "[2/2] ITB-RR @ 0.01 (torus/uniform): done" in err

    def test_warm_rerun_prints_cached_points(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        capsys.readouterr()
        assert main(self.SWEEP + cache) == 0
        out, err = capsys.readouterr()
        assert "points: 0 simulated, 2 from cache" in out
        assert err.splitlines() == [
            "[1/1] ITB-RR @ 0.005 (torus/uniform): cached",
            "[2/2] ITB-RR @ 0.01 (torus/uniform): cached"]

    def test_sweep_repeat_served_from_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        first = capsys.readouterr().out
        assert "2 simulated, 0 from cache" in first

        assert main(self.SWEEP + ["--workers", "2"] + cache) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in second
        # identical curve, point for point
        strip = lambda s: [ln for ln in s.splitlines()
                           if not ln.startswith("points:")]
        assert strip(first) == strip(second)

    #: (flags, the same settings as Executor keywords, what the
    #: refusal says -- it names the setting, as its owner does)
    BAD_EXEC = [
        (["--workers", "0"], dict(workers=0), "workers must be >= 1"),
        (["--workers", "-2"], dict(workers=-2), "workers must be >= 1"),
        (["--task-timeout", "0"], dict(timeout_s=0.0),
         "timeout_s must be positive"),
        (["--retries", "-1"], dict(retries=-1), "retries must be >= 0"),
        (["--retry-backoff", "-1"], dict(retry_backoff_s=-1.0),
         "retry_backoff_s must be >= 0"),
        (["--tls-ca", "x.pem"], dict(tls_ca="x.pem"),
         "tls_ca applies to fabric workers only"),
        (["--workers", "2", "--fabric", "127.0.0.1:1"],
         dict(workers=2, fabric="127.0.0.1:1"),
         "workers applies to local workers only"),
        (["--fabric", "garbage"], dict(fabric="garbage"),
         "fabric address must be host:port"),
        (["--fabric", "127.0.0.1:1", "--tls-ca", "missing.pem"],
         dict(fabric="127.0.0.1:1", tls_ca="missing.pem"),
         "tls_ca 'missing.pem' is not a readable PEM bundle"),
    ]
    BAD_EXEC_IDS = [f"option{i}-{' '.join(flags)}"
                    for i, (flags, _, _) in enumerate(BAD_EXEC)]

    @pytest.mark.parametrize("option,kwargs,says", BAD_EXEC,
                             ids=BAD_EXEC_IDS)
    @pytest.mark.parametrize("verb", ["sweep", "experiment", "serve"])
    def test_bad_exec_options_are_refused_in_a_line(self, verb, option,
                                                    kwargs, says, capsys):
        """Refused before anything runs: no traceback from the pool,
        no silent clamp to one worker, no fabric size overridden."""
        argv = {"sweep": self.SWEEP + ["--no-cache"],
                "experiment": ["experiment", "fig7a", "--profile", "test",
                               "--no-cache"],
                "serve": ["serve", "--port", "0"]}[verb]
        assert main(argv + option) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro: error: ") and says in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("option,kwargs,says", BAD_EXEC,
                             ids=BAD_EXEC_IDS)
    def test_bad_exec_settings_are_refused_by_their_owner(self, option,
                                                          kwargs, says):
        """The API side of the same refusals: the Executor, and each
        pool a setting reaches, raise the UsageError the CLI prints.
        ``workers=0`` is refused, not run on one worker."""
        with pytest.raises(UsageError, match=says):
            Executor(**kwargs)
        if {"fabric", "tls_ca"} & set(kwargs):
            return     # which pool a setting reaches is the Executor's call
        with pytest.raises(UsageError, match=says):
            WorkerPool(**kwargs)
        if "workers" not in kwargs:
            with pytest.raises(UsageError, match=says):
                FabricPool("127.0.0.1:1", **kwargs)

    def test_sweep_parallel_workers(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + ["--workers", "2"] + cache) == 0
        out = capsys.readouterr().out
        assert "2 simulated" in out

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        capsys.readouterr()
        assert main(["cache", "info"] + cache) == 0
        assert "2 results" in capsys.readouterr().out
        assert main(["cache", "clear"] + cache) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "info"] + cache) == 0
        assert "0 results" in capsys.readouterr().out

    def test_cache_compact(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        capsys.readouterr()
        assert main(["cache", "compact"] + cache) == 0
        out = capsys.readouterr().out
        assert "2 records kept" in out
        assert "0 corrupt pruned" in out

    def test_custom_grid_size_flags(self, capsys):
        assert main(["run", "--rows", "4", "--cols", "4",
                     "--hosts-per-switch", "2", "--rate", "0.01",
                     "--warmup-ns", "20000", "--measure-ns",
                     "60000"]) == 0
        assert "delivered" in capsys.readouterr().out
