"""Graceful-degradation campaign: saturation vs injected failures.

For every failure count ``k`` the campaign samples one deterministic
link-failure set (:mod:`sampling`) and describes the broken fabric as
the registered ``"mutated"`` topology, so wherever a run executes the
complete routing stack is rebuilt on it (spanning tree, up*/down*
orientation, route alternatives, ITB tables -- exactly the
recomputation a real reconfiguration would perform).  Each
``(k, scheme)`` cell is then:

* one saturation search (:func:`repro.experiments.sweep.search_all`)
  for the degraded throughput;
* one fixed-rate point with link statistics for the in-transit count
  and the utilisation concentration at the root;
* the route-quality statistics of its tables, computed here, where the
  report is assembled.

Searches and points are tasks of the
:class:`repro.orchestrator.Executor` -- parallel, checkpointed in the
result store, and restartable.  The study is ``repro experiment
resilience``, registered at the foot of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Any, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..experiments.profiles import Profile
from ..experiments.registry import EXPERIMENTS, Experiment
from ..runner import get_graph, get_tables
from ..experiments.sweep import resolve_executor, search_all
from ..registry import Kwarg, comma_list
from ..routing.analysis import route_statistics
from ..routing.schemes import ITB_RR, UPDOWN
from ..topology import size_kwargs
from ..topology.mutated import mutated_kwargs
from ..traffic.defaults import DEFAULT_PATTERN
from .sampling import sample_failed_links

#: the two schemes the degradation table compares (the paper's main
#: contenders: original up*/down* vs ITBs with round-robin selection)
SCHEMES: Tuple[Tuple[str, str, str], ...] = (UPDOWN, ITB_RR)


@dataclass(frozen=True)
class ResilienceCell:
    """One (failure count, scheme) entry of the degradation table."""

    k: int
    label: str
    routing: str
    policy: str
    #: base-graph link ids killed in this configuration
    failed_links: Tuple[int, ...]
    #: saturation throughput on the broken fabric, flits/ns/switch
    throughput: float
    #: did the saturation search bracket a knee?
    converged: bool
    #: throughput / healthy-baseline throughput of the same scheme
    retention: float
    #: fraction of pairs whose first route alternative is minimal
    fraction_minimal: float
    #: measured in-transit buffers per message at the probe rate
    avg_itbs_per_message: float
    #: share of total link utilisation carried by channels incident to
    #: the up*/down* root switch (concentration -> hotspotting there)
    root_concentration: float


@dataclass(frozen=True)
class ResilienceReport:
    """The full degradation study for one topology and seed."""

    topology: str
    topology_kwargs: Dict[str, Any]
    seed: int
    ks: Tuple[int, ...]
    #: healthy (k=0) cells by scheme label
    baseline: Dict[str, ResilienceCell]
    #: degraded cells, ordered by (k, scheme)
    cells: Tuple[ResilienceCell, ...]


def run_resilience(topology: str, profile: Profile, ks: Tuple[int, ...],
                   seed: int = 1,
                   topology_kwargs: Optional[Dict[str, Any]] = None,
                   start_rate: float = 0.005,
                   probe_rate: float = 0.01,
                   root: int = 0,
                   executor=None) -> ResilienceReport:
    """Run the full degradation study for one topology.

    ``ks`` are the link-failure counts; k=0 (the healthy baseline) is
    always measured and is what retention is computed against.
    """
    topology_kwargs = dict(topology_kwargs or {})
    g = get_graph(topology, topology_kwargs)
    failure_sets: Dict[int, Tuple[int, ...]] = {0: ()}
    for k in ks:
        failure_sets[k] = sample_failed_links(g, k, seed)

    degraded_ks = tuple(k for k in ks if k != 0)
    #: the healthy baseline's cells first, then (k, scheme) order
    specs: List[Tuple[int, str, str, str, SimConfig]] = []
    for k in (0, *degraded_ks):
        for routing, policy, label in SCHEMES:
            base = SimConfig(
                topology=topology, topology_kwargs=topology_kwargs,
                routing=routing, policy=policy, traffic=DEFAULT_PATTERN,
                warmup_ps=profile.sat_warmup_ps,
                measure_ps=profile.sat_measure_ps, seed=seed)
            if failure_sets[k]:
                base = base.with_overrides(
                    topology="mutated", topology_kwargs=mutated_kwargs(
                        topology, topology_kwargs, failure_sets[k]))
            specs.append((k, routing, policy, label, base))

    executor = resolve_executor(executor)
    bases = [base for *_, base in specs]
    searches = search_all(bases, profile, start_rate, executor, root=root)
    probes = executor.run_configs(
        [base.with_overrides(injection_rate=probe_rate) for base in bases],
        collect_links=True, root=root)

    healthy = {label: sat.throughput
               for (*_, label, _), sat in zip(specs[:len(SCHEMES)], searches)}
    cells: List[ResilienceCell] = []
    for (k, routing, policy, label, base), sat, probe in zip(
            specs, searches, probes):
        links = probe.link_utilization
        total = fsum(links.utilization)
        at_root = fsum(
            u for u, (a, b, _lid) in zip(links.utilization,
                                         links.channel_ends)
            if root in (a, b))
        stats = route_statistics(
            get_graph(base.topology, base.topology_kwargs),
            get_tables(base.topology, base.topology_kwargs, routing, root))
        cells.append(ResilienceCell(
            k=k, label=label, routing=routing, policy=policy,
            failed_links=failure_sets[k],
            throughput=sat.throughput, converged=sat.converged,
            retention=(sat.throughput / healthy[label]
                       if healthy[label] > 0 else 0.0),
            fraction_minimal=stats.fraction_minimal,
            avg_itbs_per_message=probe.avg_itbs_per_message or 0.0,
            root_concentration=at_root / total if total > 0 else 0.0))

    return ResilienceReport(
        topology, topology_kwargs, seed, degraded_ks,
        {cell.label: cell for cell in cells[:len(SCHEMES)]},
        tuple(cells[len(SCHEMES):]))


def _row(cell: ResilienceCell) -> str:
    conv = "" if cell.converged else " (unconverged)"
    return (f"{cell.k:>3d}  {cell.label:8s} "
            f"{cell.throughput:10.4f} {cell.retention:9.1%} "
            f"{cell.fraction_minimal:8.1%} "
            f"{cell.avg_itbs_per_message:9.2f} "
            f"{cell.root_concentration:9.1%}{conv}")


def sizes_line(topology: str, topology_kwargs: Dict[str, Any]) -> str:
    """``torus (cols=4, hosts_per_switch=2, rows=4)``: a fabric as the
    resilience tables' headings name it."""
    kw = ", ".join(f"{k}={v}" for k, v in sorted(topology_kwargs.items()))
    return topology + (f" ({kw})" if kw else "")


def render_resilience_table(report: ResilienceReport) -> str:
    """The degradation study as a fixed-width table.

    ``retention`` is saturation throughput relative to the same
    scheme's healthy (k=0) baseline -- the headline graceful-
    degradation number; the remaining columns explain *why* it moved
    (fewer minimal paths, more in-transit hops, utilisation piling up
    around the up*/down* root).
    """
    lines: List[str] = [
        "Graceful degradation, "
        f"{sizes_line(report.topology, report.topology_kwargs)}, "
        f"seed {report.seed}",
        f"{'  k':>3s}  {'scheme':8s} {'sat thpt':>10s} "
        f"{'retain':>9s} {'minimal':>8s} {'itbs/msg':>9s} "
        f"{'root util':>9s}"]
    lines += [_row(cell) for cell in report.baseline.values()]
    for k in report.ks:
        failed = next(c.failed_links for c in report.cells if c.k == k)
        lines.append(f"  -- k={k}: failed links "
                     f"{', '.join(map(str, failed))}")
        lines += [_row(cell) for cell in report.cells if cell.k == k]
    return "\n".join(lines)


#: the fabric both resilience studies run on unless told otherwise: the
#: 4x4 torus with two hosts per switch, small enough that every cell
#: runs in seconds at every profile, dense enough that a dead cable
#: actually bends routes.  ``rows`` / ``cols`` / ``hosts_per_switch``
#: reach whichever of them ``topology`` declares
FABRIC_KWARGS = (
    Kwarg("topology", str, "torus", "a topology buildable from sizes"),
    Kwarg("rows", int, 4, "grid rows"),
    Kwarg("cols", int, 4, "grid columns"),
    Kwarg("hosts_per_switch", int, 2, "hosts per switch"))


def resilience(profile: Profile, executor=None, topology: str = "torus",
               rows: int = 4, cols: int = 4, hosts_per_switch: int = 2,
               ks: str = "1,2,4", seed: int = 1) -> ResilienceReport:
    """Link-failure degradation with ``ks`` cables down."""
    return run_resilience(
        topology, profile, comma_list(ks, int, "ks"), seed=seed,
        topology_kwargs=size_kwargs(topology, rows, cols, hosts_per_switch),
        executor=executor)


EXPERIMENTS.register(Experiment(
    "resilience", "resilience-table",
    "Graceful degradation under link failures, 4x4 torus",
    resilience, render_resilience_table,
    kwargs=FABRIC_KWARGS + (
        Kwarg("ks", str, "1,2,4", "comma-separated link-failure counts"),
        Kwarg("seed", int, 1, "selects the failure sets and the traffic"))))
