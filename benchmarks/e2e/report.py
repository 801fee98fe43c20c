"""Statistics over runs, the suite report, and ``compare``.

A *suite report* is ``{"schema", "runs": [run report, ...]}`` where a
run report is what one ``run.py --workload ... --report FILE`` wrote.
``compare`` puts two of them side by side, one row per (end-to-end
metric, workload), under the bounds ``BENCHMARK.json`` fixes, and is
the tool both for the two-run acceptance check of the benchmark itself
and for later parent-vs-change reports.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Sequence, Tuple

import layers

SCHEMA = 1


def load_benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(layers.CHECKOUT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median -- the figure
    the benchmark's acceptance rule bounds."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def summarise(values: Sequence[float], unit: str) -> Dict[str, Any]:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def collect(suite: Dict[str, Any], trace: int = 0
            ) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run of the suite."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in suite["runs"]:
        if run["trace"] != trace:
            continue
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def print_suite_table(suite: Dict[str, Any]) -> None:
    spec = load_benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for trace, title in ((0, "end-to-end"), (1, "per-layer")):
        rows = collect(suite, trace)
        if not rows:
            continue
        print(f"\n{title} metrics: median [q1, q3] over n runs, "
              f"spread = (q3-q1)/median")
        for (workload, name), values in sorted(rows.items()):
            q1, med, q3 = quartiles(values)
            line = (f"  {workload:16s} {name:34s} {med:12.5g} "
                    f"{units.get(name, '?'):8s} [{q1:.5g}, {q3:.5g}] "
                    f"n={len(values)}")
            if name in bounds and len(values) > 1:
                line += (f"  spread {spread(values):.1%} "
                         f"(bound {bounds[name]['bound']:.0%})")
            print(line)


# -- compare ----------------------------------------------------------------

def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(a: Dict[str, Any], b: Dict[str, Any], identical: bool) -> int:
    """Print the comparison table; exit status for ``run.py compare``."""
    spec = load_benchmark_spec()
    rows_a, rows_b = collect(a), collect(b)
    regressed = 0
    print(f"{'workload':16s} {'metric':16s} {'A median [q1,q3]':>34s} "
          f"{'B median [q1,q3]':>34s} {'B worse by':>10s} {'bound':>6s} "
          f"verdict")
    for m in spec["end_to_end"]:
        for w in [x["name"] for x in spec["workloads"]]:
            va, vb = rows_a.get((w, m["name"])), rows_b.get((w, m["name"]))
            if not va or not vb:
                print(f"{w:16s} {m['name']:16s} missing on one side")
                regressed += 1
                continue
            qa, qb = quartiles(va), quartiles(vb)
            worse = _worse_by(qa[1], qb[1], m["better"])
            if m["better"] == "lower":
                all_better = max(vb) < min(va)
            else:
                all_better = min(vb) > max(va)
            if worse > m["bound"]:
                verdict = "regressed"
                regressed += 1
            elif (max(spread(va), spread(vb)) > m["bound"]
                  and not all_better):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:16s} {m['name']:16s} {_cell(qa):>34s} {_cell(qb):>34s} "
                  f"{worse:+10.1%} {m['bound']:6.0%} {verdict}")

    # exact-repeat checks: same seed, same code => same simulation
    digests: Dict[Tuple[str, int], Dict[str, str]] = {}
    failed = 0
    for side, suite in (("A", a), ("B", b)):
        for run in suite["runs"]:
            failed += run["failed"] + (not run["correct"])
            digests.setdefault((run["workload"], run["seed"]), {}
                               ).setdefault(side, run["sim_digest"])
    differs = [key for key, d in sorted(digests.items())
               if len(d) == 2 and d["A"] != d["B"]]
    shared = sum(1 for d in digests.values() if len(d) == 2)
    print(f"sim_digest: {shared - len(differs)} of {shared} shared "
          f"(workload, seed) pairs identical"
          + "".join(f"\n  differs: {w} seed {s}" for w, s in differs))
    print(f"failed points or checks over both suites: {failed}")
    if identical and (differs or failed):
        regressed += 1
    print("RESULT:", "regressed" if regressed else "ok")
    return 1 if regressed else 0
