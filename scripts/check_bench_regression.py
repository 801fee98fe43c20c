#!/usr/bin/env python
"""Gate on sim-core benchmark regressions.

Compares a freshly generated ``BENCH_sim_core.json`` (see
``benchmarks/sim_core.py``) against the
committed baseline and exits non-zero when:

* any baseline point is **missing** from the current run (a silently
  dropped benchmark config would otherwise disable its gate forever);
* the current run has **extra** points absent from the baseline (the
  baseline no longer describes the matrix -- regenerate and commit it);
* any point's ``messages_per_s`` -- simulated messages delivered per
  wall-clock second, the cross-engine-honest axis -- falls more than
  ``--tolerance`` (default 30 %) below the baseline, and so does
  ``events_per_s`` on an event-driven point (baseline ``events`` at
  least its ``messages_delivered``), where it tracks the event-loop
  hot path;
* any point's ``events`` exceeds the baseline at all.  The count is
  deterministic, so it is gated exactly: on an event-driven point a
  channel release drifting back onto the heap shows up here, on a
  batch point (which drains many messages per simulator event, so its
  events/s measures nothing and is not gated) a tick chain growing
  back;
* any point's ``cold_wall_s`` -- its first, cache-cold run, i.e. graph
  + routing-table construction + the loop -- exceeds **2x** the
  baseline (plus 50 ms of grace for the ~10 ms validation points).
  Loose on purpose: the figure is single-shot and noisy, but table
  construction sliding back from per-destination to per-pair
  enumeration costs 4x on the ``updown`` point;
* any point's ``tables_wall_s`` -- the routing-table build inside that
  cold run -- exceeds 2x the baseline + 50 ms, the same rule: the
  build is most of a cold run, and this names it when it is the part
  that slid back;
* any point's ``route_legs`` -- the distinct leg objects in its fully
  looked-up routing table -- exceeds the baseline at all.  The count
  is deterministic, so it is gated exactly: a table that stops sharing
  the legs its pairs have in common shows up here before it shows up
  as memory;
* any point's ``run_peak_kb`` -- the ``tracemalloc`` peak of one warm
  run, tables and schedule memoised -- exceeds the baseline by more
  than 25 %.  It is near-deterministic (same seed, same allocations),
  so the bound only absorbs interpreter-version drift: per-key state
  that grows with fabric size instead of contention shows up here.

The throughput gate is deliberately loose: both axes are
machine-dependent and CI runners are noisy, so only a large, consistent
drop -- the kind a hot-path regression produces -- trips it.  The
matrix-shape checks are exact.  Refresh the committed baseline
(``benchmarks/BENCH_sim_core.json``) whenever the benchmark matrix or
the CI hardware generation changes.

Usage:  python scripts/check_bench_regression.py CURRENT BASELINE
            [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys

#: throughput axes gated per point (fractional-drop tolerance applies
#: to each independently; events/s on event-driven points only)
GATED_METRICS = ("events_per_s", "messages_per_s")
#: cold (first-run) wall clock, and the table build inside it, may
#: grow to FACTOR x baseline + GRACE_S
COLD_WALL_FACTOR = 2.0
COLD_WALL_GRACE_S = 0.05
#: a warm run's traced peak may grow to FACTOR x baseline
RUN_PEAK_FACTOR = 1.25


def load_points(path: str) -> dict:
    """Read one benchmark JSON; every malformed input dies with a
    one-line explanation naming the file, never a traceback."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read benchmark file {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON ({e}); regenerate it "
                 f"with benchmarks/sim_core.py")
    if not isinstance(data, dict) or "points" not in data:
        sys.exit(f"error: {path} has no 'points' key; expected the "
                 f"format written by benchmarks/sim_core.py")
    points = {}
    for i, p in enumerate(data["points"]):
        missing = [k for k in ("name", "cold_wall_s", "tables_wall_s",
                               "route_legs",
                               "run_peak_kb", "events",
                               "messages_delivered")
                   + GATED_METRICS if k not in p]
        if missing:
            sys.exit(f"error: {path}: points[{i}] is missing "
                     f"{', '.join(missing)}; regenerate the file with "
                     f"benchmarks/sim_core.py")
        points[p["name"]] = p
    return points


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="freshly generated BENCH_sim_core.json")
    ap.add_argument("baseline", help="committed baseline to compare against")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional throughput drop per metric "
                         "(default 0.30)")
    args = ap.parse_args()

    current = load_points(args.current)
    baseline = load_points(args.baseline)

    failed = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"{name:14s} MISSING from current run")
            failed.append(name)
            continue
        event_driven = base["events"] >= base["messages_delivered"]
        ok = cur["events"] <= base["events"]
        print(f"{name:14s} {'events':14s} {cur['events']:12d} "
              f"vs baseline {base['events']:12d} "
              f"{'ok' if ok else 'REGRESSED'}")
        if not ok:
            failed.append(name)
        for metric in GATED_METRICS:
            if metric == "events_per_s" and not event_driven:
                continue
            floor = base[metric] * (1.0 - args.tolerance)
            ratio = (cur[metric] / base[metric]
                     if base[metric] else float("inf"))
            ok = cur[metric] >= floor
            print(f"{name:14s} {metric:14s} {cur[metric]:12,.0f} "
                  f"vs baseline {base[metric]:12,.0f} "
                  f"({ratio:5.2f}x, floor {floor:12,.0f}) "
                  f"{'ok' if ok else 'REGRESSED'}")
            if not ok and name not in failed:
                failed.append(name)
        for metric in ("cold_wall_s", "tables_wall_s"):
            ceiling = base[metric] * COLD_WALL_FACTOR + COLD_WALL_GRACE_S
            ok = cur[metric] <= ceiling
            print(f"{name:14s} {metric:14s} {cur[metric]:12.3f} "
                  f"vs baseline {base[metric]:12.3f} "
                  f"(ceiling {ceiling:.3f}) {'ok' if ok else 'REGRESSED'}")
            if not ok and name not in failed:
                failed.append(name)
        ok = cur["route_legs"] <= base["route_legs"]
        print(f"{name:14s} {'route_legs':14s} {cur['route_legs']:12d} "
              f"vs baseline {base['route_legs']:12d} "
              f"{'ok' if ok else 'REGRESSED'}")
        if not ok and name not in failed:
            failed.append(name)
        ceiling = base["run_peak_kb"] * RUN_PEAK_FACTOR
        ok = cur["run_peak_kb"] <= ceiling
        print(f"{name:14s} {'run_peak_kb':14s} {cur['run_peak_kb']:12d} "
              f"vs baseline {base['run_peak_kb']:12d} "
              f"(ceiling {ceiling:,.0f}) {'ok' if ok else 'REGRESSED'}")
        if not ok and name not in failed:
            failed.append(name)
    extra = sorted(set(current) - set(baseline))
    if extra:
        print(f"FAIL: points not in baseline: {', '.join(extra)}; "
              f"regenerate and commit benchmarks/BENCH_sim_core.json",
              file=sys.stderr)

    if failed:
        print(f"FAIL: throughput regressed beyond "
              f"{args.tolerance:.0%}, cold run or table build slower "
              f"than {COLD_WALL_FACTOR:g}x baseline, more route legs or "
              f"events than baseline, run peak above "
              f"{RUN_PEAK_FACTOR:g}x baseline, or point missing on: "
              f"{', '.join(failed)}",
              file=sys.stderr)
    if failed or extra:
        return 1
    print("sim-core benchmark within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
