#!/usr/bin/env python
"""Regenerate every paper artefact under the full PAPER profile.

Writes incremental, human-readable results to ``results/paper_results.txt``
and a machine-readable summary to ``results/paper_results.json``; both are
the source of EXPERIMENTS.md.  Expect this to take on the order of an
hour in pure Python sequentially -- ``--workers N`` fans the simulation
points out across cores through the orchestrator, and the result store
(``--cache-dir``, default ``.repro_cache``) checkpoints every finished
point, so an interrupted run resumes where it stopped instead of
starting over.  The bench suite (``pytest benchmarks/
--benchmark-only``) is the fast everyday variant.

Besides the paper artefacts, every run records an engine wall-clock
profile: the same validation-size network (the 4x4 torus of the
cross-engine validation suite) timed through each requested simulation
engine (``--engine``, repeatable; default: all registered), so the perf
trajectory tracks the packet- vs flit-level cost side by side.

Usage:  python benchmarks/run_paper_profile.py [exp_id ...]
            [--workers N] [--cache-dir DIR] [--no-cache]
            [--engine NAME ...] [--no-engine-profile]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.config import SimConfig
from repro.experiments.profiles import PAPER
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import clear_caches, run_simulation
from repro.orchestrator import (DEFAULT_CACHE_DIR, Executor,
                                ProgressReporter, ResultStore)
from repro.perf import PerfRecorder
from repro.sim import available_engines
from repro.units import ns

#: experiment kind -> the digest of its result kept in
#: ``paper_results.json`` (the text report is the experiment's own
#: ``render``); kinds without an entry are reported as text only
JSON_DIGESTS = {
    "latency-panel": lambda fig: {
        "measured": fig.measured_throughput(),
        "paper": fig.paper_throughput},
    "link-map": lambda panels: {
        panel.fig_id + ":" + panel.label: panel.utilization.summary()
        for panel in panels},
    "hotspot-table": lambda tab: {
        "averages": {f"{f}:{lab}": v
                     for (f, lab), v in tab.averages().items()},
        "gains": {f"{f}:{lab}": v
                  for (f, lab), v in tab.improvement_factors().items()}},
}

#: validation-size network used for cross-engine checks (DESIGN.md
#: Section 5): small enough that the flit engine finishes in seconds
ENGINE_PROFILE_CFG = dict(
    topology="torus",
    topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
    routing="itb", policy="rr", traffic="uniform",
    injection_rate=0.02,
    warmup_ps=ns(20_000), measure_ps=ns(120_000))

#: the paper-scale workload (8x8 torus, 512 hosts, the saturation-knee
#: offered load) shared by the ``*-paper`` benchmark points
_PAPER_SCALE_CFG = dict(
    topology="torus", topology_kwargs={"rows": 8, "cols": 8},
    routing="itb", policy="rr", traffic="uniform",
    injection_rate=0.04, seed=1)

#: sim-core benchmark matrix (BENCH_sim_core.json): a paper-sized point
#: per engine plus a validation-size point per engine, so every
#: engine's hot-loop throughput is tracked over time.  ``flit-paper``
#: runs a reduced window (the flit engine is ~3 orders slower than the
#: array engine; a full 350 us horizon would dominate the whole bench).
#: ``array-updown`` is there for its ``cold_wall_s``: the array loop is
#: negligible, so the point times the ``simple_routes`` table build the
#: other (all-ITB) points never run.
#: Cross-engine comparisons use ``messages_per_s`` -- events/s counts
#: heap events, which batch engines deliberately collapse.
BENCH_CORE_CONFIGS = [
    ("packet-paper", dict(
        engine="packet", warmup_ps=ns(50_000), measure_ps=ns(300_000),
        **_PAPER_SCALE_CFG)),
    ("array-paper", dict(
        engine="array", warmup_ps=ns(50_000), measure_ps=ns(300_000),
        **_PAPER_SCALE_CFG)),
    ("array-updown", dict(
        engine="array", warmup_ps=ns(50_000), measure_ps=ns(300_000),
        **{**_PAPER_SCALE_CFG, "routing": "updown", "policy": "sp",
           "injection_rate": 0.01})),   # below the UP/DOWN knee
    ("flit-paper", dict(
        engine="flit", warmup_ps=ns(10_000), measure_ps=ns(50_000),
        **_PAPER_SCALE_CFG)),
    ("packet-val", dict(engine="packet", **ENGINE_PROFILE_CFG)),
    ("flit-val", dict(engine="flit", **ENGINE_PROFILE_CFG)),
    ("array-val", dict(engine="array", **ENGINE_PROFILE_CFG)),
]


def bench_sim_core(repeats: int = 3) -> dict:
    """Time the benchmark matrix; best-of-``repeats`` per point.

    The first repeat of each point runs with cleared memo caches, so its
    ``cold_wall_s`` includes graph + routing-table construction -- the
    cost every fresh worker process pays.  ``events_per_s`` comes from
    the best repeat's event-loop wall clock, the steady-state figure the
    CI regression gate watches.
    """
    points = []
    for name, kw in BENCH_CORE_CONFIGS:
        cfg = SimConfig(**kw)
        clear_caches()
        reports = []
        for _ in range(repeats):
            rec = PerfRecorder()
            run_simulation(cfg, perf=rec)
            reports.append(rec.report)
        cold = reports[0]
        best = min(reports, key=lambda r: r.sim_wall_s)
        points.append({
            "name": name,
            "engine": cfg.engine,
            "cold_wall_s": round(cold.wall_s, 4),
            "best_loop_wall_s": round(best.sim_wall_s, 4),
            "events": best.events,
            "events_per_s": round(best.events_per_s, 1),
            "messages_delivered": best.messages_delivered,
            "messages_per_s": round(best.messages_per_s, 1),
        })
    return {"schema": 1, "repeats": repeats, "points": points}


def render_bench_core(data: dict) -> str:
    lines = [f"sim-core benchmark (best of {data['repeats']}, cold run "
             "includes table build):",
             f"  {'point':14s} {'engine':8s} {'cold [s]':>9s} "
             f"{'loop [s]':>9s} {'events':>8s} {'events/s':>10s} "
             f"{'msgs/s':>8s}"]
    for p in data["points"]:
        lines.append(f"  {p['name']:14s} {p['engine']:8s} "
                     f"{p['cold_wall_s']:9.3f} {p['best_loop_wall_s']:9.3f} "
                     f"{p['events']:8d} {p['events_per_s']:10,.0f} "
                     f"{p['messages_per_s']:8,.0f}")
    return "\n".join(lines)


def write_bench_core(data: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def profile_engines(engines) -> list:
    """Time one validation-size run per engine, links collected."""
    rows = []
    for engine in engines:
        cfg = SimConfig(engine=engine, **ENGINE_PROFILE_CFG)
        t0 = time.perf_counter()
        s = run_simulation(cfg, collect_links=True)
        rows.append({
            "engine": engine,
            "wall_s": round(time.perf_counter() - t0, 3),
            "messages_delivered": s.messages_delivered,
            "avg_latency_ns": round(s.avg_latency_ns, 1),
            "itb_peak_bytes": s.itb_peak_bytes,
        })
    return rows


def render_engine_profile(rows) -> str:
    base = min(r["wall_s"] for r in rows) or 1e-9
    lines = ["engine wall-clock profile (4x4 torus, itb/rr, "
             "rate 0.02, 120 us window):",
             f"  {'engine':10s} {'wall [s]':>9s} {'rel':>6s} "
             f"{'delivered':>9s} {'lat [ns]':>9s}"]
    for r in rows:
        lines.append(f"  {r['engine']:10s} {r['wall_s']:9.3f} "
                     f"{r['wall_s'] / base:5.1f}x "
                     f"{r['messages_delivered']:9d} "
                     f"{r['avg_latency_ns']:9.1f}")
    return "\n".join(lines)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("exp_ids", nargs="*", metavar="exp_id",
                   help="artefacts to regenerate (default: all)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel simulation workers (1 = in-process)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="orchestrator result-store directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk result store")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-point timeout in seconds")
    p.add_argument("--engine", dest="engines", action="append",
                   choices=list(available_engines()), metavar="NAME",
                   help="engine(s) to include in the wall-clock "
                        "profile (repeatable; default: all registered)")
    p.add_argument("--no-engine-profile", action="store_true",
                   help="skip the engine wall-clock profile")
    p.add_argument("--bench-core-out", default="results/BENCH_sim_core.json",
                   metavar="FILE",
                   help="where to write the sim-core benchmark JSON")
    p.add_argument("--bench-core-repeats", type=int, default=3,
                   help="repeats per sim-core benchmark point (best-of)")
    p.add_argument("--no-bench-core", action="store_true",
                   help="skip the sim-core benchmark")
    p.add_argument("--bench-core-only", action="store_true",
                   help="run only the sim-core benchmark and exit "
                        "(the CI smoke path)")
    return p.parse_args()


def main() -> None:
    args = parse_args()
    if args.bench_core_only:
        print(f"[{time.strftime('%H:%M:%S')}] sim-core benchmark "
              f"(best of {args.bench_core_repeats}) ...", flush=True)
        data = bench_sim_core(args.bench_core_repeats)
        write_bench_core(data, args.bench_core_out)
        print(render_bench_core(data))
        print(f"wrote {args.bench_core_out}")
        return
    wanted = args.exp_ids or list(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment ids: {unknown}; "
                         f"available: {sorted(EXPERIMENTS)}")
    store = None if args.no_cache else ResultStore(args.cache_dir)
    executor = Executor(workers=args.workers, store=store,
                        timeout_s=args.task_timeout,
                        reporter=ProgressReporter())

    os.makedirs("results", exist_ok=True)
    txt_path = os.path.join("results", "paper_results.txt")
    json_path = os.path.join("results", "paper_results.json")
    summary: dict = {}

    with open(txt_path, "w") as txt:
        if not args.no_bench_core:
            print(f"[{time.strftime('%H:%M:%S')}] sim-core benchmark "
                  f"(best of {args.bench_core_repeats}) ...", flush=True)
            data = bench_sim_core(args.bench_core_repeats)
            write_bench_core(data, args.bench_core_out)
            txt.write(render_bench_core(data) + "\n\n")
            txt.flush()
            summary["sim_core_bench"] = data
            with open(json_path, "w") as jf:
                json.dump(summary, jf, indent=2)

        if not args.no_engine_profile:
            engines = args.engines or list(available_engines())
            print(f"[{time.strftime('%H:%M:%S')}] engine wall-clock "
                  f"profile ({', '.join(engines)}) ...", flush=True)
            rows = profile_engines(engines)
            txt.write(render_engine_profile(rows) + "\n\n")
            txt.flush()
            summary["engine_profile"] = rows
            with open(json_path, "w") as jf:
                json.dump(summary, jf, indent=2)

        for exp_id in wanted:
            exp = EXPERIMENTS[exp_id]
            t0 = time.time()
            print(f"[{time.strftime('%H:%M:%S')}] running {exp_id} "
                  f"({exp.description}) ...", flush=True)
            result = run_experiment(exp_id, PAPER, executor=executor)
            elapsed = time.time() - t0

            txt.write(exp.render(result) + "\n\n")
            digest = JSON_DIGESTS.get(exp.kind)
            if digest is not None:
                summary[exp_id] = digest(result)
            txt.flush()
            with open(json_path, "w") as jf:
                json.dump(summary, jf, indent=2)
            print(f"    done in {elapsed:.0f}s "
                  f"({executor.stats.oneline()})", flush=True)
    print(f"wrote {txt_path} and {json_path}")


if __name__ == "__main__":
    main()
