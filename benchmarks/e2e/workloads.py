"""The four workloads: what each runs, and the children that run it.

Each workload is one user-visible operation, chosen so that a different
layer does most of the work (see README.md, "Workloads"):

``cold-point``       a fresh process running one point -- ``routing``
``fig7-packet``      Figure 7a/b/c on the default engine -- ``sim``
``fig7-array-long``  the same panels, array engine, 4x windows --
                     ``sim`` (batch kernel), ``traffic``, ``metrics``
``campaign``         24 points through every executor -- ``orchestrator``

All simulation happens in forked children of the harness (see
:mod:`procs`), so every operation starts from an interpreter that has
imported ``repro`` and built nothing.  The functions whose names end in
``_child`` run there; they take and return plain data.  ``traced``
switches a child from the black-box public entry points
(``run_simulation`` / ``sweep_rates`` / ``Executor``) to the staged
replay of :mod:`stages`, spans included in the return value.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import calibrate
import procs
from layers import L
from spans import NULL, Tracer
from stages import StagedRunner

now = time.perf_counter

#: the three configurations every Figure 7 panel compares
ROUTINGS = (("updown", "sp"), ("itb", "sp"), ("itb", "rr"))

#: Figure 7a/7b/7c as committed in ``repro.experiments.figures`` (its
#: rate grids are module-private there, so the benchmark pins its own
#: copy -- a changed grid is a changed workload and must show as one):
#: (fig id, topology, rate grid, paper saturation throughput per label)
FIG7_PANELS = (
    ("fig7a", "torus",
     (0.004, 0.008, 0.011, 0.014, 0.017, 0.021, 0.025, 0.029, 0.033, 0.038),
     {"UP/DOWN": 0.015, "ITB-SP": 0.029, "ITB-RR": 0.032}),
    ("fig7b", "torus-express",
     (0.02, 0.04, 0.055, 0.07, 0.085, 0.10, 0.115, 0.13, 0.15),
     {"UP/DOWN": 0.07, "ITB-SP": 0.12, "ITB-RR": 0.11}),
    ("fig7c", "cplant",
     (0.015, 0.03, 0.045, 0.06, 0.075, 0.09, 0.105, 0.12),
     {"UP/DOWN": 0.05, "ITB-SP": None, "ITB-RR": 0.095}),
)

#: cold-point: (topology, scheme, policy, first rate, revisit rate),
#: both rates below every scheme's knee
COLD_PAIRS = (
    ("torus", "updown", "sp", 0.010, 0.012),
    ("torus", "itb", "rr", 0.010, 0.012),
    ("cplant", "updown", "sp", 0.030, 0.036),
    ("cplant", "itb", "rr", 0.030, 0.036),
)

#: campaign: 12 rates 0.004..0.037 for each of UP/DOWN and ITB-RR
CAMPAIGN_RATES = tuple(round(0.004 + 0.003 * i, 3) for i in range(12))
CAMPAIGN_SCHEMES = (("updown", "sp"), ("itb", "rr"))
WARM_RERUNS = 20

WORKERS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Scale:
    """Network size and windows: the paper's, or the smoke test's."""

    name: str
    warmup_ps: int
    measure_ps: int
    #: topology name -> (builder name, kwargs)
    topologies: Dict[str, Tuple[str, Dict[str, Any]]]
    warm_reruns: int

    def config(self, topology: str, routing: str, policy: str, rate: float,
               engine: str, seed: int, windows: int = 1):
        name, kwargs = self.topologies[topology]
        return L.SimConfig(topology=name, topology_kwargs=kwargs,
                           routing=routing, policy=policy,
                           injection_rate=rate, engine=engine, seed=seed,
                           warmup_ps=self.warmup_ps * windows,
                           measure_ps=self.measure_ps * windows)


def full_scale() -> Scale:
    return Scale("paper", L.PAPER.warmup_ps, L.PAPER.measure_ps,
                 {"torus": ("torus", {}),
                  "torus-express": ("torus-express", {}),
                  "cplant": ("cplant", {})},
                 WARM_RERUNS)


def smoke_scale() -> Scale:
    """Every topology shrunk to a 4x4 grid, ``TEST`` windows."""
    small = {"rows": 4, "cols": 4, "hosts_per_switch": 2}
    return Scale("smoke", L.TEST.warmup_ps, L.TEST.measure_ps,
                 {"torus": ("torus", small),
                  "torus-express": ("torus-express", small),
                  "cplant": ("mesh", small)},
                 3)


# -- results and checks ---------------------------------------------------

def sim_digest(summaries: Sequence[Dict[str, Any]]) -> str:
    """sha-256 of the canonical JSON of a list of RunSummary dicts."""
    text = json.dumps(list(summaries), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SHAPES: Dict[str, Tuple[int, int]] = {}


def _shape(cfg: Dict[str, Any]) -> Tuple[int, int]:
    """(switches, hosts) of a config's topology; building a graph
    touches none of the runner's memo caches."""
    key = json.dumps([cfg["topology"], cfg["topology_kwargs"]],
                     sort_keys=True)
    if key not in _SHAPES:
        g = L.build_topology(cfg["topology"], **cfg["topology_kwargs"])
        _SHAPES[key] = (g.num_switches, g.num_hosts)
    return _SHAPES[key]


def check_point(summary: Dict[str, Any]) -> Optional[str]:
    """The per-point correctness checks; a failure reason or None.

    An unsaturated point must deliver what was offered: within 5 % of
    the expected message count, or three standard deviations of that
    count where that is more (the slack ``RunSummary.saturated`` allows
    itself before it calls a point saturated), plus the window-edge
    allowance -- every host fires at a fixed interval from a random
    phase, so its count in a finite window is off by at most one, a
    standard deviation of at most ``sqrt(hosts)/2`` messages over the
    network, of which three are allowed.  At the lowest rates (under
    one message per host per window) that, not the simulator, is the
    whole deviation.
    """
    if summary["messages_delivered"] <= 0:
        return "delivered nothing"
    if L.RunSummary.from_dict(summary).saturated:
        return None
    cfg = summary["config"]
    switches, hosts = _shape(cfg)
    expected = (summary["offered_flits_ns_switch"] * switches
                * cfg["measure_ps"] / 1_000 / cfg["message_bytes"])
    allowed = (max(0.05 * expected, 3.0 * expected ** 0.5, 8.0)
               + 1.5 * hosts ** 0.5)
    if abs(summary["messages_delivered"] - expected) > allowed:
        return (f"unsaturated but delivered {summary['messages_delivered']} "
                f"of {expected:.0f} offered (allowed +-{allowed:.0f})")
    return None


def knee_ratio_error(topology: str, series: Sequence[Any]) -> float:
    """|knee(ITB-RR) / knee(UP/DOWN) - paper ratio| / paper ratio for the
    Figure 7 panel on ``topology``, from its ``SweepResult`` series."""
    fig_id, paper = next((f, p) for f, topo, _, p in FIG7_PANELS
                         if topo == topology)
    fig = L.FigureResult(fig_id, fig_id, list(series), paper)
    knee = fig.measured_throughput()
    paper_ratio = (fig.paper_throughput["ITB-RR"]
                   / fig.paper_throughput["UP/DOWN"])
    return abs(knee["ITB-RR"] / knee["UP/DOWN"] - paper_ratio) / paper_ratio


def _curve(label: str, summaries: Sequence[Dict[str, Any]]):
    return L.SweepResult(label, [L.RunSummary.from_dict(d)
                                 for d in summaries])


@dataclass
class PassResult:
    """One repetition of a workload's operation."""

    #: reference seconds (see :mod:`calibrate`), and as the clock read
    wall_s: float
    raw_wall_s: float
    summaries: List[Dict[str, Any]]
    #: failure reasons beyond the per-point checks
    failures: List[str]
    #: workload-specific numbers (phase walls, knee ratios ...), times
    #: in reference seconds
    detail: Dict[str, Any]

    @property
    def messages(self) -> int:
        return sum(s["messages_delivered"] for s in self.summaries)


# -- shared child helpers ---------------------------------------------------

class ChildClock:
    """What every child opens around its work: the machine-speed
    sampler, and a tracer when the pass is traced."""

    def __init__(self, traced: bool) -> None:
        self.sampler = calibrate.Sampler()
        self.tracer: Tracer = Tracer() if traced else NULL
        self.timed = self.sampler.timed

    def __enter__(self) -> "ChildClock":
        self.sampler.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.sampler.__exit__(*exc)

    def result(self, **payload: Any) -> Dict[str, Any]:
        """The child's return value: ``payload`` plus every ``timed``
        piece as (label, raw s, reference s), and the spans."""
        return dict(payload, pieces=self.sampler.pieces(),
                    kernel_ms=1e3 * self.sampler.kernel_median_s(),
                    trace=self.tracer.export(self.sampler))


def piece(out: Dict[str, Any], label: str) -> Tuple[float, float]:
    """(raw, reference) seconds summed over a child's ``label`` pieces."""
    found = [(raw, ref) for name, raw, ref in out["pieces"] if name == label]
    return sum(r for r, _ in found), sum(r for _, r in found)


def points_child(cfg_dicts: List[Dict[str, Any]], repeat: bool,
                 traced: bool) -> Dict[str, Any]:
    """Run each config cold (and, with ``repeat``, again at once);
    pieces ``cold`` / ``warm``, one each per config, in order."""
    summaries = []
    with ChildClock(traced) as clock:
        if traced:
            run = StagedRunner(clock.tracer).run
        else:
            def run(cfg, _point):
                return L.run_simulation(cfg)
        for i, d in enumerate(cfg_dicts):
            cfg = L.SimConfig.from_dict(d)
            with clock.timed("cold"):
                cold = run(cfg, f"p{i}:cold")
            rec = {"cold": cold.to_dict()}
            if repeat:
                with clock.timed("warm"):
                    rec["warm"] = run(cfg, f"p{i}:warm").to_dict()
            summaries.append(rec)
    return clock.result(points=summaries)


def python_child(argv: List[str]) -> Dict[str, Any]:
    """One fresh interpreter run to completion; piece ``python``."""
    with ChildClock(False) as clock:
        with clock.timed("python", elsewhere=True):
            procs.run_python(argv, os.getcwd())
    return clock.result()


# -- cold-point -------------------------------------------------------------

class ColdPoint:
    name = "cold-point"
    engine = "array"

    def __init__(self, scale: Scale, seed: int) -> None:
        self.first = [scale.config(t, r, p, r1, self.engine, seed).to_dict()
                      for t, r, p, r1, _ in COLD_PAIRS]
        self.revisit = [scale.config(t, r, p, r2, self.engine, seed).to_dict()
                        for t, r, p, _, r2 in COLD_PAIRS]

    def first_points(self) -> List[Dict[str, Any]]:
        return self.first

    def run(self, tracer: Tracer) -> PassResult:
        """One round: per pair, a first process (cold + warm repeat),
        then a second process revisiting the pair at another rate."""
        traced = tracer is not NULL
        raw = wall = setup = revisit = 0.0
        summaries, failures, kernel_ms = [], [], []
        with procs.scratch("cold") as home:
            for i, (first, again) in enumerate(zip(self.first, self.revisit)):
                with tracer.span("harness.first_process", f"pair{i}"):
                    a = procs.call_in_child(points_child, [first], True,
                                            traced, cwd=home)
                    tracer.adopt(a["trace"], pair=i)
                with tracer.span("harness.revisit_process", f"pair{i}"):
                    b = procs.call_in_child(points_child, [again], False,
                                            traced, cwd=home)
                    tracer.adopt(b["trace"], pair=i)
                cold, warm, again_cold = (piece(a, "cold"), piece(a, "warm"),
                                          piece(b, "cold"))
                raw += cold[0] + warm[0] + again_cold[0]
                wall += cold[1] + warm[1] + again_cold[1]
                setup += cold[1] - warm[1]
                revisit += again_cold[1]
                kernel_ms += [a["kernel_ms"], b["kernel_ms"]]
                a, b = a["points"][0], b["points"][0]
                if a["cold"] != a["warm"]:
                    failures.append(f"pair {i}: warm repeat differs")
                summaries += [a["cold"], a["warm"], b["cold"]]
        # the points are sub-knee by construction, so this reads the
        # no-information value (ratio 1): reported for completeness
        cold = summaries[::3]
        err = sum(knee_ratio_error(topo, [_curve("UP/DOWN", cold[i:i + 1]),
                                          _curve("ITB-RR", cold[i + 1:i + 2])])
                  for topo, i in (("torus", 0), ("cplant", 2))) / 2
        return PassResult(wall, raw, summaries, failures,
                          {"setup_points_s": setup, "revisit_s": revisit,
                           "sat_ratio_err": err,
                           "kernel_ms": sum(kernel_ms) / len(kernel_ms)})


# -- fig7 on either engine ----------------------------------------------------

def _fig7_child(panels: List[Dict[str, Any]], traced: bool
                ) -> Dict[str, Any]:
    """Sweep every (panel, routing) sequentially; caches start empty.
    One ``sweep`` piece per curve."""
    summaries: List[Dict[str, Any]] = []
    errors, knees = [], {}
    with ChildClock(traced) as clock:
        tracer = clock.tracer
        staged = StagedRunner(tracer) if traced else None
        for panel in panels:
            series = []
            for base_dict in panel["bases"]:
                base = L.SimConfig.from_dict(base_dict)
                tag = f"{panel['fig']}:{base.label()}"
                with clock.timed("sweep"), \
                        tracer.span("experiments.sweep", tag):
                    if staged is not None:
                        sweep = L.SweepResult(
                            base.label(),
                            staged.sweep(base, panel["rates"], tag))
                    else:
                        sweep = L.sweep_rates(base, panel["rates"])
                series.append(sweep)
                summaries += [r.to_dict() for r in sweep.runs]
            knees[panel["fig"]] = {x.label: x.throughput() for x in series}
            errors.append(knee_ratio_error(panel["topology"], series))
    return clock.result(summaries=summaries, knees=knees,
                        sat_ratio_err=sum(errors) / len(errors))


class Fig7:
    def __init__(self, name: str, engine: str, windows: int,
                 scale: Scale, seed: int) -> None:
        self.name = name
        self.panels = [
            {"fig": fig, "topology": topo, "rates": list(rates),
             "bases": [scale.config(topo, r, p, rates[0], engine, seed,
                                    windows).to_dict()
                       for r, p in ROUTINGS]}
            for fig, topo, rates, _ in FIG7_PANELS]

    def first_points(self) -> List[Dict[str, Any]]:
        return [b for panel in self.panels for b in panel["bases"]]

    def run(self, tracer: Tracer) -> PassResult:
        with procs.scratch("fig7") as home, \
                tracer.span("harness.figure7", self.name):
            out = procs.call_in_child(_fig7_child, self.panels,
                                      tracer is not NULL, cwd=home)
            tracer.adopt(out["trace"])
        raw, wall = piece(out, "sweep")
        return PassResult(wall, raw, out["summaries"], [],
                          {"sat_ratio_err": out["sat_ratio_err"],
                           "knees": out["knees"],
                           "kernel_ms": out["kernel_ms"]})


# -- campaign -----------------------------------------------------------------

def _points(specs: List[Tuple[str, Dict[str, Any]]]):
    return [L.Point(pid, L.SimConfig.from_dict(cfg)) for pid, cfg in specs]


def _dicts(summaries) -> List[Dict[str, Any]]:
    return [s.to_dict() for s in summaries]


def _seq_child(specs, store_dir: str, warm_reruns: int, traced: bool
               ) -> Dict[str, Any]:
    """seq, then warm: the same call again on seq's store.  Pieces
    ``seq`` (one) and ``warm`` (one per re-run)."""
    points = _points(specs)
    store = L.ResultStore(store_dir)
    failures = []
    with ChildClock(traced) as clock:
        tracer = clock.tracer
        with clock.timed("seq"), tracer.span("orchestrator.seq"):
            if traced:
                # Executor's inline path replayed with the staged
                # runner: key -> miss -> run -> put, so the warm phase
                # below reads records this loop wrote
                staged = StagedRunner(tracer)
                results = []
                for p in points:
                    payload = p.payload()
                    key = store.key(L.POINT_TASK_FN, payload)
                    if store.get(key) is not None:
                        raise RuntimeError("seq store was not empty")
                    t0 = now()
                    value = staged.run(p.config, p.point_id).to_dict()
                    store.put(key, L.POINT_TASK_FN, payload, value,
                              elapsed_s=now() - t0)
                    results.append(value)
            else:
                results = _dicts(L.Executor(workers=1, store=store)
                                 .run_points(points))

        warm = L.Executor(workers=1, store=store)
        for _ in range(warm_reruns):
            with clock.timed("warm"), tracer.span("orchestrator.warm"):
                again = _dicts(warm.run_points(points))
            if again != results:
                failures.append("warm re-run differs from seq")
    if warm.stats.simulated or warm.stats.cached != warm_reruns * len(points):
        failures.append(f"warm re-runs simulated: {warm.stats.oneline()}")
    return clock.result(results=results, failures=failures)


def _pool_child(specs, store_dir: str, traced: bool) -> Dict[str, Any]:
    ex = L.Executor(workers=WORKERS, store=L.ResultStore(store_dir))
    attempts: List[int] = []
    pool_run = ex.pool.run

    def counting_run(tasks, on_result=None):
        def tap(res):
            attempts.append(res.attempts)
            if on_result:
                on_result(res)
        return pool_run(tasks, on_result=tap)

    ex.pool.run = counting_run
    with ChildClock(traced) as clock:
        with clock.timed("pool", elsewhere=True), \
                clock.tracer.span("orchestrator.pool", elsewhere=True):
            results = _dicts(ex.run_points(_points(specs)))
    return clock.result(results=results,
                        retries=sum(a - 1 for a in attempts))


def _fabric_child(specs, store_dir: str, traced: bool) -> Dict[str, Any]:
    """Pieces ``spawn`` (not part of the phase) and ``fabric``."""
    with ChildClock(traced) as clock:
        with clock.timed("spawn", elsewhere=True):
            workers = [procs.spawn_repro(
                ["fabric", "worker", "--listen", "127.0.0.1:0"],
                "fabric worker listening on ", os.getcwd())
                for _ in range(WORKERS)]
        try:
            ex = L.Executor(fabric=",".join(addr for _, addr in workers),
                            store=L.ResultStore(store_dir))
            with clock.timed("fabric", elsewhere=True), \
                    clock.tracer.span("orchestrator.fabric", elsewhere=True):
                results = _dicts(ex.run_points(_points(specs)))
        finally:
            for proc, _ in workers:
                procs.stop_popen(proc)
    return clock.result(results=results)


def _post_campaign(clock: ChildClock, tag: str, address: str, body: bytes
                   ) -> Dict[str, Any]:
    """POST one spec; pieces ``<tag>.ttfp`` (POST sent -> first
    ``point`` line) and ``<tag>.rest`` (-> end of the stream)."""
    host, port = address.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=120.0)
    first = done = None
    t0 = now()
    try:
        conn.request("POST", "/campaign", body,
                     {"Content-Type": "application/json"})
        for line in conn.getresponse():
            event = json.loads(line)
            if event["event"] == "point" and first is None:
                first = now()
            elif event["event"] == "done":
                done = event
            elif event["event"] == "error":
                raise RuntimeError(f"serve: {event['error']}")
    finally:
        conn.close()
    if first is None or done is None:
        raise RuntimeError("serve stream ended without a done event")
    clock.sampler.mark(f"{tag}.ttfp", t0, first, elsewhere=True)
    clock.sampler.mark(f"{tag}.rest", first, now(), elsewhere=True)
    return {"results": done["results"], "stats": done["stats"]}


def _serve_child(specs, store_dir: str, traced: bool) -> Dict[str, Any]:
    """A fresh ``repro serve`` process on an empty store; the spec
    POSTed, then POSTed again."""
    body = json.dumps({"points": [{"id": pid, "config": cfg}
                                  for pid, cfg in specs]}).encode("utf-8")
    with ChildClock(traced) as clock:
        server, address = procs.spawn_repro(
            ["serve", "--port", "0", "--cache-dir", store_dir],
            "repro serve listening on http://", os.getcwd())
        try:
            with clock.tracer.span("orchestrator.serve", elsewhere=True):
                cold = _post_campaign(clock, "cold", address, body)
                warm = _post_campaign(clock, "warm", address, body)
        finally:
            procs.stop_popen(server)
    failures = []
    if warm["results"] != cold["results"]:
        failures.append("serve warm POST differs from cold")
    if warm["stats"]["simulated"]:
        failures.append("serve warm POST simulated points")
    # over both POSTs: the cold one simulates, the warm one reads
    stats = {k: cold["stats"][k] + warm["stats"][k]
             for k in ("simulated", "cached", "failed")}
    return clock.result(results=cold["results"], stats=stats,
                        failures=failures)


def run_phases(specs, warm_reruns: int, tracer: Tracer) -> PassResult:
    """The five campaign phases over ``specs``, each from a fresh child
    (empty memo caches) against a fresh store."""
    traced = tracer is not NULL
    with procs.scratch("campaign") as home:
        def phase(child, *args):
            with tracer.span("harness." + child.__name__):
                out = procs.call_in_child(
                    child, specs,
                    os.path.join(home, "store" + child.__name__),
                    *args, traced, cwd=home)
                tracer.adopt(out["trace"])
            return out

        seq = phase(_seq_child, warm_reruns)
        pool = phase(_pool_child)
        fabric = phase(_fabric_child)
        serve = phase(_serve_child)

    failures = seq["failures"] + serve["failures"]
    for name, out in (("pool", pool), ("fabric", fabric), ("serve", serve)):
        if sim_digest(out["results"]) != sim_digest(seq["results"]):
            failures.append(f"{name} results differ from seq")

    def ref(out, label):
        return piece(out, label)[1]

    parts = [piece(out, label) for out, labels in (
        (seq, ("seq", "warm")), (pool, ("pool",)), (fabric, ("fabric",)),
        (serve, ("cold.ttfp", "cold.rest", "warm.ttfp", "warm.rest")))
        for label in labels]
    raw, wall = (sum(p[i] for p in parts) for i in (0, 1))
    warm_median = median(r for name, _, r in seq["pieces"] if name == "warm")
    n = len(specs)
    seq_s, pool_s, fabric_s = (ref(seq, "seq"), ref(pool, "pool"),
                               ref(fabric, "fabric"))
    ttfp_cold = ref(serve, "cold.ttfp")
    detail = {
        "points": n,
        "seq_wall_s": seq_s,
        "warm_wall_s": warm_median,
        "pool_wall_s": pool_s,
        "fabric_wall_s": fabric_s,
        "fabric_spawn_s": ref(fabric, "spawn"),
        "serve_ttfp_cold_s": ttfp_cold,
        "serve_ttfp_warm_s": ref(serve, "warm.ttfp"),
        "serve_stream_total_s": ttfp_cold + ref(serve, "cold.rest"),
        "serve_stats": serve["stats"],
        "retries": pool["retries"],
        "pool_speedup_2w": seq_s / pool_s,
        "fabric_speedup_2w": seq_s / fabric_s,
        "cached_points_per_s": n / warm_median,
        "kernel_ms": pool["kernel_ms"],
    }
    # every phase that simulated contributes its messages to the rate
    simulated = (seq["results"] + pool["results"] + fabric["results"]
                 + serve["results"])
    return PassResult(wall, raw, simulated, failures, detail)


class CampaignWorkload:
    name = "campaign"
    engine = "array"

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.specs = [
            (f"{r}-{p}@{rate:.3f}",
             scale.config("torus", r, p, rate, self.engine, seed).to_dict())
            for r, p in CAMPAIGN_SCHEMES for rate in CAMPAIGN_RATES]

    def first_points(self) -> List[Dict[str, Any]]:
        return [cfg for _, cfg in self.specs[::len(CAMPAIGN_RATES)]]

    def run(self, tracer: Tracer) -> PassResult:
        result = run_phases(self.specs, self.scale.warm_reruns, tracer)
        # one panel of Figure 7a falls out of the campaign's own points
        n = len(CAMPAIGN_RATES)
        result.detail["sat_ratio_err"] = knee_ratio_error(
            "torus", [_curve("UP/DOWN", result.summaries[:n]),
                      _curve("ITB-RR", result.summaries[n:2 * n])])
        return result


def make(name: str, scale: Scale, seed: int):
    if name == "cold-point":
        return ColdPoint(scale, seed)
    if name == "fig7-packet":
        return Fig7(name, "packet", 1, scale, seed)
    if name == "fig7-array-long":
        return Fig7(name, "array", 4, scale, seed)
    if name == "campaign":
        return CampaignWorkload(scale, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cold-point", "fig7-packet", "fig7-array-long", "campaign")

