#!/usr/bin/env python
"""Sim-core benchmark: the hot loop of every engine, timed.

Runs the matrix behind the committed baseline
``benchmarks/BENCH_sim_core.json`` -- a paper-sized point per engine
plus a validation-size point per engine -- and writes the same JSON
for ``scripts/check_bench_regression.py`` to gate (CI does both on
every push).  Regenerate the baseline with
``python benchmarks/sim_core.py --repeats 12 --out
benchmarks/BENCH_sim_core.json``.

This times the engines only.  Regenerating a paper artefact is
``python -m repro experiment <id> --profile paper --workers N``; the
whole-operation benchmark is ``benchmarks/e2e/``.

Usage:  python benchmarks/sim_core.py [--repeats N] [--out FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import tracemalloc
from statistics import median

from repro.config import SimConfig
from repro.routing import compute_tables
from repro.runner import clear_caches, get_graph, get_tables, run_simulation
from repro.units import ns

#: validation-size network used for cross-engine checks (DESIGN.md
#: Section 5): small enough that the flit engine finishes in seconds
_VALIDATION_CFG = dict(
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

#: the benchmark matrix.  ``flit-paper`` runs a reduced window (the
#: flit engine is ~3 orders slower than the array engine; a full
#: 350 us horizon would dominate the whole bench).
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
    ("packet-val", dict(engine="packet", **_VALIDATION_CFG)),
    ("flit-val", dict(engine="flit", **_VALIDATION_CFG)),
    ("array-val", dict(engine="array", **_VALIDATION_CFG)),
]


def route_legs(cfg: SimConfig) -> int:
    """Distinct leg tuples in the point's (memoised) table once every
    pair has been looked up -- a deterministic measure of how much of
    the table is shared."""
    tables = get_tables(cfg.topology, cfg.topology_kwargs, cfg.routing,
                        max_routes_per_pair=cfg.params.max_routes_per_pair)
    return len({id(leg) for alts in tables.routes.values()
                for route in alts for leg in route[2:]})


def table_kb(cfg: SimConfig) -> int:
    """``tracemalloc`` size, in kB, of the point's table fully looked
    up: built afresh on the memoised graph, every pair looked up, and
    what is still allocated once the build's transients are gone --
    what a process holds for it for as long as it keeps the table."""
    g = get_graph(cfg.topology, cfg.topology_kwargs)
    gc.collect()        # a full collection also empties the free lists
    tracemalloc.start()
    try:
        tables = compute_tables(g, cfg.routing, 0,
                                cfg.params.max_routes_per_pair)
        tables.routes.values()
        gc.collect()    # ... which would keep the build's transients
        return tracemalloc.get_traced_memory()[0] // 1024
    finally:
        tracemalloc.stop()


def run_peak_kb(cfg: SimConfig) -> int:
    """``tracemalloc`` peak, in kB, of one more run of ``cfg`` -- with
    its tables and schedule already memoised, so this is what the run
    itself allocates: the network, its arbitration state, the packets
    in flight and the metrics."""
    tracemalloc.start()
    try:
        run_simulation(cfg)
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


def array_speedup(repeats: int) -> float:
    """Median over ``repeats`` of the ratio of ``array-paper`` to
    ``packet-paper`` messages/s (each over its run's loop), the two
    run back to back in each repeat, which goes first alternating.

    One ratio per repeat: two best-of-N figures taken minutes apart on
    a shared host drift apart by more than the engines differ in
    speed from one regeneration to the next."""
    configs = dict(BENCH_CORE_CONFIGS)
    pair = [SimConfig(**configs["packet-paper"]),
            SimConfig(**configs["array-paper"])]
    ratios = []
    for i in range(repeats):
        order = pair if i % 2 == 0 else pair[::-1]
        reports = []
        for cfg in order:
            run_simulation(cfg, perf=reports.append)
        rate = {cfg.engine: r.messages_per_s
                for cfg, r in zip(order, reports)}
        ratios.append(rate["array"] / rate["packet"])
    return median(ratios)


def bench_sim_core(repeats: int = 3) -> dict:
    """Time the benchmark matrix; best-of-``repeats`` per point.

    The first repeat of each point runs with cleared memo caches, so its
    ``cold_wall_s`` includes graph + routing-table construction -- the
    cost every fresh worker process pays -- and its ``tables_wall_s``
    is the table build alone.  ``events_per_s`` comes from
    the best repeat's event-loop wall clock, the steady-state figure the
    CI regression gate watches.  ``run_peak_kb`` (:func:`run_peak_kb`),
    ``route_legs`` (:func:`route_legs`) and ``table_kb``
    (:func:`table_kb`) are measured after the timed repeats, so neither
    tracing nor looking every pair up slows or warms them;
    ``array_speedup`` (:func:`array_speedup`) after every point.
    """
    points = []
    for name, kw in BENCH_CORE_CONFIGS:
        cfg = SimConfig(**kw)
        clear_caches()
        reports = []
        for _ in range(repeats):
            run_simulation(cfg, perf=reports.append)
        cold = reports[0]
        best = min(reports, key=lambda r: r.sim_wall_s)
        points.append({
            "name": name,
            "engine": cfg.engine,
            "cold_wall_s": round(cold.wall_s, 4),
            "tables_wall_s": round(cold.tables_wall_s, 4),
            "best_loop_wall_s": round(best.sim_wall_s, 4),
            "events": best.events,
            "events_per_s": round(best.events_per_s, 1),
            "messages_delivered": best.messages_delivered,
            "messages_per_s": round(best.messages_per_s, 1),
            "run_peak_kb": run_peak_kb(cfg),
            "route_legs": route_legs(cfg),
            "table_kb": table_kb(cfg),
        })
    return {"schema": 1, "repeats": repeats, "points": points,
            "array_speedup": round(array_speedup(repeats), 2)}


def render_bench_core(data: dict) -> str:
    lines = [f"sim-core benchmark (best of {data['repeats']}, cold run "
             "includes table build):",
             f"  {'point':14s} {'engine':8s} {'cold [s]':>9s} "
             f"{'tables':>7s} {'loop [s]':>9s} {'events':>8s} "
             f"{'events/s':>10s} {'msgs/s':>8s} {'peak kB':>8s} "
             f"{'legs':>6s} {'table kB':>8s}"]
    for p in data["points"]:
        lines.append(f"  {p['name']:14s} {p['engine']:8s} "
                     f"{p['cold_wall_s']:9.3f} {p['tables_wall_s']:7.3f} "
                     f"{p['best_loop_wall_s']:9.3f} "
                     f"{p['events']:8d} {p['events_per_s']:10,.0f} "
                     f"{p['messages_per_s']:8,.0f} {p['run_peak_kb']:8d} "
                     f"{p['route_legs']:6d} {p['table_kb']:8d}")
    lines.append(f"  array-paper / packet-paper msgs/s: "
                 f"{data['array_speedup']:.2f}x (median of "
                 f"{data['repeats']} paired repeats)")
    return "\n".join(lines)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3,
                   help="repeats per point (best-of)")
    p.add_argument("--out", default="BENCH_sim_core.json", metavar="FILE",
                   help="where to write the benchmark JSON")
    args = p.parse_args()
    data = bench_sim_core(args.repeats)
    with open(args.out, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(render_bench_core(data))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
