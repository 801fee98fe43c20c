"""Cross-scheme tournament: every routing scheme against every rival.

The paper compares two schemes on three topologies; the registry makes
the comparison open-ended.  A *tournament* runs every requested
``(scheme, topology, traffic pattern)`` cell and reports, per cell:

* **saturation throughput** -- the knee of the accepted-traffic curve
  (one :func:`~repro.experiments.sweep.search_all` over every cell);
* **knee offered load** -- the highest offered rate whose latency stays
  within 2x the zero-load latency (:func:`~repro.metrics.saturation
  .knee_from_runs` over the search's own probe runs, no extra sims);
* **p99 latency** at a stable operating point (80 % of the last stable
  rate), from one wave of points that keep per-message samples;
* optionally **retention**: degraded/healthy throughput after the
  failure sampler kills ``failures`` links -- the degraded fabrics'
  searches ride in the same ``search_all`` (schemes whose capability
  declaration rejects the broken fabric -- grid-bound ones lose their
  geometry -- report no retention).

Cells where the scheme's capability declaration rejects the topology
(e.g. dimension-order routing on an irregular network) are marked
unsupported up front and never dispatched.  Searches and points are
independent executor tasks: parallel, checkpointed in the result
store, restartable.  The study is ``repro experiment tournament``,
registered at the foot of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..canon import PlainData
from ..config import SimConfig
from ..metrics.saturation import knee_from_runs
from ..registry import Kwarg, comma_list
from ..resilience.sampling import sample_failed_links
from ..routing.schemes import SCHEMES, scheme_label
from ..topology import size_kwargs
from ..topology.mutated import mutated_kwargs
from ..traffic.registry import PATTERNS, parse_workload
from .profiles import Profile
from .registry import EXPERIMENTS, Experiment
from ..runner import get_graph
from .sweep import resolve_executor, search_all

#: latency multiple (over zero-load) that defines the knee
KNEE_THRESHOLD = 2.0


@dataclass(frozen=True)
class TopologySpec(PlainData):
    """One tournament column: a topology builder plus its arguments."""

    name: str
    kwargs: Dict[str, Any]
    label: str


@dataclass(frozen=True)
class SchemeEntry(PlainData):
    """One tournament row: a scheme with its path-selection policy."""

    routing: str
    policy: str
    label: str


@dataclass(frozen=True)
class TournamentCell(PlainData):
    """One (scheme, topology, pattern) measurement."""

    routing: str
    policy: str
    label: str
    topology: str
    pattern: str
    #: False when the scheme's capability declaration rejects the
    #: topology; every metric below is meaningless then
    supported: bool
    throughput: float = 0.0
    converged: bool = False
    #: offered load at the latency knee (None when the sweep never
    #: produced two stable points to locate one)
    knee_offered: Optional[float] = None
    knee_latency_ns: Optional[float] = None
    knee_bracketed: bool = False
    #: stable operating point the percentile probe ran at
    probe_rate: Optional[float] = None
    p99_latency_ns: Optional[float] = None
    avg_latency_ns: Optional[float] = None
    #: saturation throughput on the failure-degraded fabric (None when
    #: no failures were requested or the scheme cannot route the
    #: broken graph)
    degraded_throughput: Optional[float] = None
    #: degraded / healthy throughput
    retention: Optional[float] = None


@dataclass(frozen=True)
class TournamentReport(PlainData):
    """Full tournament outcome: the cross product of the three axes;
    its plain-data form is ``repro experiment tournament --json``."""

    schemes: Tuple[SchemeEntry, ...]
    topologies: Tuple[TopologySpec, ...]
    patterns: Tuple[str, ...]
    seed: int
    #: links killed for the retention measurement (0 = skipped)
    failures: int
    cells: Tuple[TournamentCell, ...]

    def cell(self, label: str, topology: str,
             pattern: str) -> TournamentCell:
        """Look up one cell by (scheme label, topology label, pattern)."""
        for c in self.cells:
            if (c.label, c.topology, c.pattern) == (label, topology,
                                                    pattern):
                return c
        raise KeyError((label, topology, pattern))


def default_entries(schemes: Optional[Sequence[str]] = None
                    ) -> Tuple[SchemeEntry, ...]:
    """Scheme entries with their natural policies.

    Multipath schemes compete with round-robin selection (their whole
    point), single-path schemes with ``"sp"`` (the policy is inert).
    """
    names = tuple(schemes) if schemes else SCHEMES.names()
    entries = []
    for name in names:
        s = SCHEMES.get(name)  # raises with the available list on typos
        policy = "rr" if s.multipath else "sp"
        entries.append(SchemeEntry(name, policy, scheme_label(name, policy)))
    return tuple(entries)


def run_tournament(entries: Sequence[SchemeEntry],
                   topologies: Sequence[TopologySpec],
                   patterns: Sequence[str],
                   profile: Profile,
                   seed: int = 1,
                   failures: int = 0,
                   start_rate: float = 0.005,
                   executor=None) -> TournamentReport:
    """Run the full cross product and assemble the report.

    ``patterns`` are workload specs (``"uniform"``, ``"uniform+onoff"``);
    kwargs come from the registry declarations' defaults, so the
    tournament needs no per-pattern plumbing.  Unsupported cells -- the
    scheme's capability declaration rejects the topology, or the
    workload's destination pattern is not defined on it (bit-reversal
    needs a power-of-two host count) -- are recorded but never
    simulated.  ``failures`` > 0 additionally runs every supported
    cell's saturation search on a fabric with that many links killed
    (the deterministic failure sampler, same seed), unless the scheme's
    declaration rejects the broken fabric.
    """
    executor = resolve_executor(executor)
    #: per topology label: the healthy graph and, when links are killed,
    #: the ``mutated`` kwargs that describe the degraded fabric
    fabrics: Dict[str, Tuple[Any, Optional[Dict[str, Any]]]] = {}
    for topo in topologies:
        g = get_graph(topo.name, topo.kwargs)
        failed = (sample_failed_links(g, failures, seed)
                  if failures > 0 else ())
        fabrics[topo.label] = (g, mutated_kwargs(topo.name, topo.kwargs,
                                                 failed) if failed else None)

    specs: List[Tuple[SchemeEntry, TopologySpec, str, SimConfig]] = []
    #: index into ``specs`` -> that cell's config on the degraded fabric
    degraded: Dict[int, SimConfig] = {}
    for pattern in patterns:
        traffic, arrival = parse_workload(pattern)
        for topo in topologies:
            g, broken = fabrics[topo.label]
            if not PATTERNS.get(traffic).supports(g):
                continue
            for e in entries:
                scheme = SCHEMES.get(e.routing)
                if not scheme.supports(g):
                    continue
                base = SimConfig(
                    topology=topo.name, topology_kwargs=dict(topo.kwargs),
                    routing=e.routing, policy=e.policy,
                    traffic=traffic, arrival=arrival,
                    warmup_ps=profile.sat_warmup_ps,
                    measure_ps=profile.sat_measure_ps, seed=seed)
                if broken and scheme.supports(get_graph("mutated", broken)):
                    degraded[len(specs)] = base.with_overrides(
                        topology="mutated", topology_kwargs=broken)
                specs.append((e, topo, pattern, base))

    searches = search_all(
        [base for *_, base in specs] + list(degraded.values()),
        profile, start_rate, executor)
    degraded_throughput = {
        i: sat.throughput
        for i, sat in zip(degraded, searches[len(specs):])}

    probe_rates = [
        0.8 * sat.last_stable_rate
        if math.isfinite(sat.last_stable_rate) and sat.last_stable_rate > 0
        else start_rate
        for sat in searches[:len(specs)]]
    probes = executor.run_configs(
        [base.with_overrides(injection_rate=rate)
         for (*_, base), rate in zip(specs, probe_rates)],
        collect_percentiles=True)

    by_key: Dict[Tuple[str, str, str], TournamentCell] = {}
    for i, (e, topo, pattern, _) in enumerate(specs):
        sat, probe = searches[i], probes[i]
        knee = knee_from_runs(sat.runs, KNEE_THRESHOLD)
        thr = sat.throughput
        deg = degraded_throughput.get(i)
        by_key[(e.label, topo.label, pattern)] = TournamentCell(
            routing=e.routing, policy=e.policy, label=e.label,
            topology=topo.label, pattern=pattern, supported=True,
            throughput=thr, converged=sat.converged,
            knee_offered=knee.offered if knee else None,
            knee_latency_ns=knee.latency if knee else None,
            knee_bracketed=knee.bracketed if knee else False,
            probe_rate=probe_rates[i],
            p99_latency_ns=probe.p99_latency_ns,
            avg_latency_ns=probe.avg_latency_ns,
            degraded_throughput=deg,
            retention=(deg / thr if deg is not None and thr > 0
                       else None))

    cells = tuple(
        by_key.get((e.label, topo.label, pattern))
        or TournamentCell(routing=e.routing, policy=e.policy, label=e.label,
                          topology=topo.label, pattern=pattern,
                          supported=False)
        for pattern in patterns for topo in topologies for e in entries)
    return TournamentReport(tuple(entries), tuple(topologies),
                            tuple(patterns), seed, failures, cells)


# -- rendering ---------------------------------------------------------------


#: shade ramp for the heatmap: cell's standing relative to column best
_SHADES = ".:=#"


def _shade(frac: float) -> str:
    frac = max(0.0, min(1.0, frac))
    return _SHADES[min(len(_SHADES) - 1, int(frac * len(_SHADES)))]


def _matrix(title: str, report: TournamentReport, pattern: str,
            value, fmt: str, higher_better: bool = True) -> List[str]:
    """One metric as rows=schemes x cols=topologies, shaded per column.

    Each cell shows the value plus a shade mark scaled to the column's
    best (``#`` = at/near the winner), so relative standing is visible
    at a glance; the winner also gets a ``*``.  Unsupported cells and
    missing values render ``--``.
    """
    width = max(11, max(len(t.label) for t in report.topologies) + 2)
    name_w = max(len(e.label) for e in report.schemes) + 2
    lines = [f"{title} [{pattern}]",
             " " * name_w + "".join(f"{t.label:>{width}}"
                                    for t in report.topologies)]
    columns: Dict[str, List[Optional[float]]] = {}
    for t in report.topologies:
        columns[t.label] = [
            value(report.cell(e.label, t.label, pattern))
            if report.cell(e.label, t.label, pattern).supported else None
            for e in report.schemes]
    best: Dict[str, Optional[float]] = {}
    for t in report.topologies:
        vals = [v for v in columns[t.label] if v is not None]
        best[t.label] = ((max(vals) if higher_better else min(vals))
                         if vals else None)
    for i, e in enumerate(report.schemes):
        row = f"{e.label:<{name_w}}"
        for t in report.topologies:
            v, b = columns[t.label][i], best[t.label]
            if v is None:
                row += f"{'--':>{width}}"
                continue
            mark = "*" if v == b else " "
            # standing in (0, 1]: 1 = column winner, regardless of
            # whether high or low values win this metric
            if higher_better:
                frac = v / b if b else 1.0
            else:
                frac = b / v if v else 1.0
            row += f"{format(v, fmt) + mark + _shade(frac):>{width}}"
        lines.append(row)
    return lines


def render_tournament(report: TournamentReport) -> str:
    """ASCII report: throughput + knee heatmaps, p99, retention."""
    out: List[str] = []
    topo_names = ", ".join(t.label for t in report.topologies)
    out.append(f"Routing-scheme tournament (seed {report.seed}): "
               f"{len(report.schemes)} schemes x [{topo_names}] x "
               f"{len(report.patterns)} patterns")
    out.append("cells: value + shade vs column best "
               f"({_SHADES[-1]!r} = best, '*' = winner, '--' = scheme "
               "does not support the topology)")
    for pattern in report.patterns:
        out.append("")
        out.extend(_matrix("saturation throughput (flits/ns/switch)",
                           report, pattern,
                           lambda c: c.throughput, ".4f"))
        out.append("")
        out.extend(_matrix("latency knee (offered flits/ns/switch)",
                           report, pattern,
                           lambda c: c.knee_offered, ".4f"))
        out.append("")
        out.extend(_matrix("p99 latency at 0.8x stable rate (ns)",
                           report, pattern,
                           lambda c: c.p99_latency_ns, ".0f",
                           higher_better=False))
        if report.failures > 0:
            out.append("")
            out.extend(_matrix(
                f"throughput retention after {report.failures} "
                "link failures", report, pattern,
                lambda c: c.retention, ".2f"))
    return "\n".join(out)


# -- the registered study ---------------------------------------------------


def tournament(profile: Profile, executor=None, schemes: str = "all",
               topologies: str = "torus,mesh", rows: int = 4, cols: int = 4,
               hosts_per_switch: int = 2,
               patterns: str = "uniform,bit-reversal,incast,uniform+onoff",
               failures: int = 2, start_rate: float = 0.005,
               seed: int = 1) -> TournamentReport:
    """Every registered scheme on scaled-down grids, unless told
    otherwise.

    4x4 torus and 4x4 mesh (2 hosts/switch -> 32 hosts, a power of two
    so bit-reversal is defined) under four workloads -- uniform and
    bit-reversal (the paper's axes) plus many-to-one incast and bursty
    ON/OFF uniform traffic (the extension axes) -- with a
    2-link-failure retention column; small enough that the full cross
    product stays tractable at the bench profile.
    """
    specs = []
    for name in comma_list(topologies, str, "topologies"):
        kwargs = size_kwargs(name, rows, cols, hosts_per_switch)
        specs.append(TopologySpec(
            name, kwargs,
            f"{name} {rows}x{cols}" if "rows" in kwargs else name))
    return run_tournament(
        default_entries(None if schemes == "all"
                        else comma_list(schemes, str, "schemes")),
        specs, comma_list(patterns, str, "patterns"), profile, seed=seed,
        failures=failures, start_rate=start_rate, executor=executor)


EXPERIMENTS.register(Experiment(
    "tournament", "tournament-table",
    "Every registered scheme x {torus, mesh} x {uniform, bit-reversal, "
    "incast, uniform+onoff} with failure retention",
    tournament, render_tournament, kwargs=(
        Kwarg("schemes", str, "all", "comma-separated scheme names, or "
                                     "'all' registered (repro schemes)"),
        Kwarg("topologies", str, "torus,mesh",
              "comma-separated topologies buildable from sizes"),
        Kwarg("rows", int, 4, "grid rows, where declared"),
        Kwarg("cols", int, 4, "grid columns, where declared"),
        Kwarg("hosts_per_switch", int, 2, "hosts per switch"),
        Kwarg("patterns", str, "uniform,bit-reversal,incast,uniform+onoff",
              "comma-separated workloads, 'pattern' or 'pattern+arrival'"),
        Kwarg("failures", int, 2, "links to kill for the retention "
                                  "column (0 skips the degraded searches)"),
        Kwarg("start_rate", float, 0.005,
              "initial offered load of the saturation ramps"),
        Kwarg("seed", int, 1, "selects the traffic and the failure sets")),
    to_json=TournamentReport.to_dict))
