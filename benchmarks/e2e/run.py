#!/usr/bin/env python3
"""Layered end-to-end benchmark of the repro simulator -- see README.md.

One measured run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; it exits
non-zero when a correctness check failed.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced pass that reports the per-layer metrics.

Everything at once, several seeds, with medians, quartiles and spreads::

    python3 benchmarks/e2e/run.py suite --out A.json
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional

import layers
import procs
import report
import spans
import workloads
from layers import L
from spans import NULL, Tracer
from stages import StagedRunner
from workloads import PassResult, now

#: harness deadline per measured run (the contract allows 180 s)
RUN_DEADLINE_S = 170
#: share of ``--seconds`` spent re-measuring set-up after the timed part
SETUP_SHARE = 0.25
#: repetitions of each warm probe in the traced pass
PROBE_REPS = 5
IMPORT_PROBE = ["-c", "import repro.cli"]
CLI_RUN_PROBE = ["-m", "repro", "run", "--rows", "4", "--cols", "4",
                 "--hosts-per-switch", "2", "--rate", "0.01",
                 "--warmup-ns", "20000", "--measure-ns", "60000"]
OUT_DIR = os.path.join(layers.BENCH_DIR, ".out")


class Checks:
    """Running tally of points attempted and checks failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def points(self, summaries: List[Dict[str, Any]]) -> None:
        self.attempted += len(summaries)
        for s in summaries:
            reason = workloads.check_point(s)
            if reason:
                cfg = s["config"]
                self.fail(f"{cfg['topology']}/{cfg['routing']}@"
                          f"{cfg['injection_rate']}: {reason}")

    def passes(self, passes: List[PassResult]) -> str:
        """Check every repetition; return their (common) sim digest."""
        digests = set()
        for p in passes:
            self.points(p.summaries)
            for reason in p.failures:
                self.fail(reason)
            digests.add(workloads.sim_digest(p.summaries))
        if len(digests) > 1:
            self.fail("repetitions with one seed gave different summaries")
        return sorted(digests)[0]

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


# -- the untraced pass: end-to-end metrics ------------------------------------

def _python_probe(argv: List[str], home: str) -> float:
    """Reference seconds of one fresh interpreter running ``argv``."""
    out = procs.call_in_child(workloads.python_child, argv, cwd=home)
    return workloads.piece(out, "python")[1]


def measure_end_to_end(workload, seconds: float, checks: Checks
                       ) -> Dict[str, Any]:
    home = procs.scratch_dir("probe")
    cold_point = workload.name == "cold-point"
    passes: List[PassResult] = []
    imports: List[float] = []
    t_start = now()
    while True:
        if cold_point:
            # a round is its own set-up measurement: one import probe
            # beside it completes the set-up sample
            imports.append(_python_probe(IMPORT_PROBE, home))
        passes.append(workload.run(NULL))
        elapsed = now() - t_start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
    peak_rss = procs.children_peak_rss_mb()
    digest = checks.passes(passes)

    if cold_point:
        setups = [i + p.detail["setup_points_s"]
                  for i, p in zip(imports, passes)]
    else:
        setups = []
        t_setup = now()
        while True:
            setups.append(_python_probe(IMPORT_PROBE, home)
                          + _setup_points(workload, home, checks))
            spent = now() - t_setup
            if (spent + spent / len(setups) > SETUP_SHARE * seconds
                    or len(setups) == 5):
                break

    walls = [p.wall_s for p in passes]
    rates = [p.messages / p.wall_s for p in passes]
    metrics = {
        "wall_s": report.summarise(walls, "s"),
        "setup_s": report.summarise(setups, "s"),
        "sim_msgs_per_s": report.summarise(rates, "msgs/s"),
        "peak_rss_mb": report.summarise([peak_rss], "MB"),
    }
    detail = dict(passes[-1].detail,
                  raw_wall_s=median([p.raw_wall_s for p in passes]))
    return {"metrics": metrics, "sim_digest": digest, "detail": detail}


def _setup_points(workload, home: str, checks: Checks) -> float:
    """Sum over the workload's distinct (topology, scheme) pairs of
    [cold run of the pair's first point - its immediate warm repeat],
    in one fresh child."""
    out = procs.call_in_child(workloads.points_child,
                              workload.first_points(), True, False, cwd=home)
    checks.points([p["cold"] for p in out["points"]])
    for p in out["points"]:
        if p["cold"] != p["warm"]:
            checks.fail("same seed twice gave different summaries")
    return workloads.piece(out, "cold")[1] - workloads.piece(out, "warm")[1]


# -- the traced pass: per-layer metrics ----------------------------------------

def _probe_child(first_points: List[Dict[str, Any]],
                 records: List[Dict[str, Any]], reps: int) -> Dict[str, Any]:
    """Off-path and black-box timings on the workload's own first
    points and result records, in one fresh child."""
    cfgs = [L.SimConfig.from_dict(d) for d in first_points]
    cfg0 = cfgs[0]
    failures = []
    extra: Dict[str, Any] = {}
    with workloads.ChildClock(True) as clock:
        tracer = clock.tracer
        span = tracer.span
        with span("experiments.run_cold"):
            reference = L.run_simulation(cfg0)
        for _ in range(reps):
            with span("experiments.run_warm"):
                L.run_simulation(cfg0)
        for _ in range(reps):
            with span("experiments.run_checked"):
                L.run_simulation(cfg0, check_invariants=True)
        rate = cfg0.injection_rate
        with span("experiments.sweep_probe"):
            L.sweep_rates(cfg0, [rate, round(rate * 1.2, 6)])

        if layers.available(*layers.STAGED):
            staged = StagedRunner(tracer, probe=True)
            with span("probe.pairs"):
                # each new graph and table triggers its off-path probes
                for i, cfg in enumerate(cfgs):
                    s = staged.run(cfg, f"pair{i}")
                    if i == 0 and s.to_dict() != reference.to_dict():
                        failures.append(
                            "staged replay differs from run_simulation")
            for _ in range(reps):
                with span("probe.staged_warm"):
                    staged.run(cfg0, "warm")

        store = L.ResultStore("probe-store")
        for rec in records:
            payload = {"config": rec["config"], "runner_kwargs": {}}
            with span("orchestrator.store.key"):
                key = store.key(L.POINT_TASK_FN, payload)
            with span("orchestrator.store.put"):
                store.put(key, L.POINT_TASK_FN, payload, rec, elapsed_s=0.0)
            with span("orchestrator.store.get"):
                got = store.get(key)
            if got is None or got["result"] != rec:
                failures.append("store did not return what was put")
        info = store.info()
        extra["record_bytes"] = info.total_bytes / max(1, info.entries)

        if layers.available("orchestrator.wire"):
            extra["wire_bytes_per_point"] = _wire_probe(tracer, records)
    return clock.result(failures=failures, **extra)


def _wire_probe(tracer: Tracer, records: List[Dict[str, Any]]) -> int:
    """Round trips of a task frame out and a median-sized result frame
    back over a socketpair; returns the bytes one point puts on the
    wire."""
    median = sorted(records, key=lambda r: len(json.dumps(r))
                    )[len(records) // 2]
    task = {"type": "task", "task_id": "0", "attempt": 1,
            "fn": L.POINT_TASK_FN,
            "payload": {"config": median["config"], "runner_kwargs": {}}}
    result = {"type": "result", "task_id": "0", "attempt": 1,
              "status": "ok", "value": median, "elapsed_s": 0.1}
    a, b = socket.socketpair()
    try:
        L.send_frame(a, task)
        L.send_frame(a, result)
        a.shutdown(socket.SHUT_WR)
        wire_bytes = 0
        while chunk := b.recv(1 << 16):
            wire_bytes += len(chunk)
    finally:
        a.close()
        b.close()
    a, b = socket.socketpair()
    try:
        for _ in range(200):
            with tracer.span("orchestrator.wire.frame_rtt"):
                L.send_frame(a, task)
                L.recv_frame(b)
                L.send_frame(b, result)
                L.recv_frame(a)
    finally:
        a.close()
        b.close()
    return wire_bytes


def measure_layers(workload, checks: Checks, reps: int,
                   trace_out: str) -> Dict[str, Any]:
    staged_ok = layers.available(*layers.STAGED)
    m: Dict[str, float] = {}

    # 1. the operation untraced, then traced: same program, spans on
    reference = workload.run(NULL)
    tracer = Tracer()
    if staged_ok:
        traced = workload.run(tracer)
        digest = checks.passes([reference, traced])
        m["trace_overhead_frac"] = ((traced.wall_s - reference.wall_s)
                                    / reference.wall_s)
    else:
        traced = reference
        digest = checks.passes([reference])
    main, counts = tracer.spans, tracer.counts
    m["sat_ratio_err"] = traced.detail["sat_ratio_err"]

    # 2. off-path and black-box probes, fresh child
    home = procs.scratch_dir("probe")
    records = reference.summaries[:64]
    probe = procs.call_in_child(_probe_child, workload.first_points(),
                                records, reps, cwd=home)
    for reason in probe["failures"]:
        checks.fail(reason)
    pspans = probe["trace"]["spans"]

    # 3. a second fresh process revisiting the first pair
    if "revisit_s" in traced.detail:
        m["revisit_s"] = traced.detail["revisit_s"]
    else:
        first = dict(workload.first_points()[0])
        first["injection_rate"] = round(first["injection_rate"] * 1.2, 6)
        again = procs.call_in_child(workloads.points_child, [first], False,
                                    False, cwd=home)
        checks.points([again["points"][0]["cold"]])
        m["revisit_s"] = workloads.piece(again, "cold")[1]

    # 4. the campaign phases: the workload's own, or its first points
    #    (one per pair, at most four) pushed through every executor
    if workload.name == "campaign":
        phases = traced.detail
    else:
        specs = [(f"slice{i}", cfg) for i, cfg in
                 enumerate(workload.first_points()[:4])]
        sliced = workloads.run_phases(specs, 3, NULL)
        checks.passes([sliced])
        phases = sliced.detail

    # 5. fresh interpreters
    m["cli.import_s"] = median([_python_probe(IMPORT_PROBE, home)
                                 for _ in range(min(3, reps))])
    m["cli.run_s"] = _python_probe(CLI_RUN_PROBE, home)

    # -- assemble -----------------------------------------------------------
    total = spans.total
    if staged_ok:
        m["topology.build_s"] = total(main, "topology.build")
        m["topology.graphs"] = counts.get("topology.graphs", 0)
        m["routing.tables_s"] = total(main, "routing.tables")
        m["routing.tables_built"] = counts.get("routing.tables_built", 0)
        m["routing.route_alternatives"] = counts.get(
            "routing.route_alternatives", 0)
        m["routing.validate_s"] = total(pspans, "routing.validate")
        m["traffic.workload_s"] = total(main, "traffic.workload")
        m["traffic.pregenerate_s"] = (total(main, "traffic.pregenerate")
                                      or total(pspans, "traffic.pregenerate"))
        m["traffic.messages_scheduled"] = counts.get(
            "traffic.messages_scheduled", 0)
        m["sim.construct_s"] = total(main, "sim.construct")
        m["sim.loop_s"] = total(main, "sim.loop")
        m["sim.events"] = counts.get("sim.events", 0)
        delivered = counts.get("sim.messages_delivered", 0)
        m["sim.messages_delivered"] = delivered
        m["sim.loop_msgs_per_s"] = delivered / m["sim.loop_s"]
        m["sim.us_per_msg"] = 1e6 * m["sim.loop_s"] / delivered
        m["metrics.finalize_s"] = total(main, "metrics.finalize")
        if layers.available("routing.stages"):
            for stage in ("tree", "simple_routes", "minimal_paths",
                          "itb_routes"):
                m[f"routing.{stage}_s"] = total(pspans, f"routing.{stage}")
    warm = median(spans.durations(pspans, "experiments.run_warm"))
    m["experiments.run_cold_s"] = total(pspans, "experiments.run_cold")
    m["experiments.run_warm_s"] = warm
    m["experiments.sweep_s"] = total(pspans, "experiments.sweep_probe")
    m["sim.invariants_overhead_frac"] = median(
        spans.durations(pspans, "experiments.run_checked")) / warm - 1.0
    if staged_ok:
        # what a warm run_simulation costs beyond the layer calls the
        # staged replay of the same point makes
        layer_calls = []
        for rep in (s for s in pspans if s["name"] == "probe.staged_warm"):
            run = next(s for s in pspans if s["parent"] == rep["id"])
            layer_calls.append(sum(spans.duration(s) for s in pspans
                                   if s["parent"] == run["id"]
                                   and not s.get("probe")))
        m["experiments.runner_self_s"] = warm - median(layer_calls)

    for op in ("key", "put", "get"):
        m[f"orchestrator.store.{op}_s"] = median(
            spans.durations(pspans, f"orchestrator.store.{op}"))
    m["orchestrator.store.record_bytes"] = probe["record_bytes"]
    if "wire_bytes_per_point" in probe:
        m["orchestrator.wire.frame_rtt_s"] = median(
            spans.durations(pspans, "orchestrator.wire.frame_rtt"))
        m["orchestrator.wire.bytes_per_point"] = probe["wire_bytes_per_point"]

    n = phases["points"]
    m["orchestrator.seq.per_task_s"] = phases["seq_wall_s"] / n
    m["orchestrator.pool.per_task_s"] = phases["pool_wall_s"] / n
    m["orchestrator.pool.wall_s"] = phases["pool_wall_s"]
    m["orchestrator.retries"] = phases["retries"]
    m["orchestrator.fabric.wall_s"] = phases["fabric_wall_s"]
    m["orchestrator.fabric.spawn_s"] = phases["fabric_spawn_s"]
    m["orchestrator.serve.ttfp_cold_s"] = phases["serve_ttfp_cold_s"]
    m["orchestrator.serve.ttfp_warm_s"] = phases["serve_ttfp_warm_s"]
    m["orchestrator.serve.stream_total_s"] = phases["serve_stream_total_s"]
    for stat, value in phases["serve_stats"].items():
        m[f"orchestrator.{stat}"] = value
    for name in ("pool_speedup_2w", "fabric_speedup_2w",
                 "cached_points_per_s"):
        m[name] = phases[name]

    layer_self = spans.self_times(main)
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "layer_self_s": layer_self,
                   "counts": counts, "spans": main,
                   "probe_spans": pspans}, fh)
    return {"metrics": m, "sim_digest": digest, "layer_self_s": layer_self,
            "detail": traced.detail, "trace_file": trace_out}


# -- one measured run ------------------------------------------------------------

def measured_run(name: str, seed: int, seconds: float, trace: int,
                 scale, reps: int, trace_out: Optional[str] = None
                 ) -> Dict[str, Any]:
    """Run one workload once; print its metrics; return the run report."""
    spec = report.load_benchmark_spec()
    workload = workloads.make(name, scale, seed)
    checks = Checks()
    if trace:
        trace_out = trace_out or os.path.join(
            OUT_DIR, f"trace-{name}-seed{seed}.json")
        out = measure_layers(workload, checks, reps, trace_out)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": v, "unit": declared.get(k, "?")}
                   for k, v in out["metrics"].items()}
    else:
        out = measure_end_to_end(workload, seconds, checks)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = out["metrics"]

    tag = f"[{name} seed={seed} trace={trace} scale={scale.name}]"
    print(f"{tag} sim_digest {out['sim_digest']}")
    for key, value in sorted(out["detail"].items()):
        if isinstance(value, float):
            print(f"{tag} detail {key} = {value:.6g}")
    for layer, value in sorted(out.get("layer_self_s", {}).items()):
        print(f"{tag} self time {layer:12s} {value:10.4f} s")
    for key in sorted(declared):
        if key in metrics:
            m = metrics[key]
            extra = (f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]"
                     if "n" in m else "")
            print(f"{tag} {key:36s} {m['value']:14.6g} {m['unit']}{extra}")
        else:
            print(f"{tag} {key:36s} unavailable")
    for key in sorted(set(metrics) - set(declared)):
        checks.fail(f"metric {key} is not declared in BENCHMARK.json")
    for reason in checks.failures[:20]:
        print(f"{tag} FAILED: {reason}")
    if "trace_file" in out:
        print(f"{tag} spans written to "
              f"{os.path.relpath(out['trace_file'], layers.CHECKOUT)}")

    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "scale": scale.name,
            "correct": not checks.failures,
            "attempted": max(1, checks.attempted),
            "failed": len(checks.failures),
            "failures": checks.failures[:20],
            "sim_digest": out["sim_digest"], "metrics": metrics,
            "detail": {k: v for k, v in out["detail"].items()
                       if isinstance(v, (int, float))}}


def contract_line(run: Dict[str, Any]) -> str:
    """The last line of a measured run, exactly as the contract has it."""
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in run["metrics"].items()}})


def preflight_or_exit() -> None:
    lines = layers.preflight()
    for line in lines:
        print(line, file=sys.stderr)
    if not layers.available(*layers.REQUIRED):
        print("benchmark cannot run: the repro package (src/) is missing "
              "or lacks a required public symbol", file=sys.stderr)
        raise SystemExit(2)


def cmd_run(args: argparse.Namespace) -> int:
    preflight_or_exit()
    procs.install_guards(RUN_DEADLINE_S)
    try:
        run = measured_run(args.workload, args.seed, args.seconds,
                           args.trace, workloads.full_scale(), PROBE_REPS,
                           args.trace_out)
    finally:
        procs.cleanup()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(run, fh)
    print(contract_line(run))
    return 0 if run["correct"] else 1


def cmd_smoke(args: argparse.Namespace) -> int:
    """Every workload, both passes, on 4x4 grids with TEST windows."""
    preflight_or_exit()
    procs.install_guards(RUN_DEADLINE_S)
    runs = []
    try:
        for name in workloads.NAMES:
            for trace in (0, 1):
                runs.append(measured_run(name, args.seed, 0.0, trace,
                                         workloads.smoke_scale(), 1))
                print(contract_line(runs[-1]))
    finally:
        procs.cleanup()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"schema": report.SCHEMA, "runs": runs}, fh)
    return 0 if all(r["correct"] for r in runs) else 1


def cmd_suite(args: argparse.Namespace) -> int:
    """Measured runs for several seeds, each in its own interpreter
    exactly as the driver starts them; one report, one table."""
    preflight_or_exit()
    procs.install_guards()
    spec = report.load_benchmark_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    out_dir = procs.scratch_dir("suite")
    runs, bad = [], 0
    t0 = time.monotonic()
    try:
        for seed in args.seeds:
            for name in names:
                for trace in ([0, 1] if args.trace and seed == args.seeds[0]
                              else [0]):
                    path = os.path.join(out_dir, f"{name}-{seed}-{trace}.json")
                    argv = [sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(trace), "--report", path]
                    t1 = time.monotonic()
                    rc = subprocess.run(argv, stdout=subprocess.PIPE,
                                        text=True).returncode
                    print(f"suite: {name} seed {seed} trace {trace}: exit "
                          f"{rc} in {time.monotonic() - t1:.1f}s", flush=True)
                    if rc == 0 or os.path.exists(path):
                        with open(path, encoding="utf-8") as fh:
                            runs.append(json.load(fh))
                    bad += rc != 0
    finally:
        procs.cleanup()
    suite = {"schema": report.SCHEMA, "seconds": args.seconds,
             "nproc": os.cpu_count(), "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=1)
    report.print_suite_table(suite)
    print(f"\nsuite: {len(runs)} runs, {bad} failed, "
          f"{time.monotonic() - t0:.0f}s")
    return 1 if bad else 0


def cmd_compare(args: argparse.Namespace) -> int:
    suites = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            suites.append(json.load(fh))
    return report.compare(suites[0], suites[1], args.identical)


def _seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--seeds", type=_seed_list,
                       default=_seed_list("1-6,8-11"),
                       help="e.g. 1-3 or 1,2,9 (default 1-6,8-11: seed 7 "
                            "is the hold-out seed)")
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--workloads", nargs="*", default=None)
        p.add_argument("--trace", action="store_true",
                       help="add one traced run per workload (first seed)")
        p.add_argument("--out", default=None, help="write the suite report")
        args = p.parse_args(argv[1:])
        if args.seconds is None:
            args.seconds = report.load_benchmark_spec()["run_seconds"]
        return cmd_suite(args)
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("--identical", action="store_true",
                       help="also fail when a sim_digest differs or a "
                            "check failed (two runs of the same code)")
        return cmd_compare(p.parse_args(argv[1:]))

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--report", default=None,
                   help="also write the full run report (JSON) here")
    p.add_argument("--trace-out", default=None,
                   help="span file of a traced run "
                        "(default benchmarks/e2e/.out/)")
    args = p.parse_args(argv)
    if args.smoke:
        return cmd_smoke(args)
    if not args.workload:
        p.error("--workload is required (or: suite, compare, --smoke)")
    return cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
