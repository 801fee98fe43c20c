"""Graceful-degradation campaign: saturation vs injected failures.

For every failure count ``k`` the campaign samples one deterministic
link-failure set (:mod:`sampling`), rebuilds the complete routing
stack on the broken fabric through the registered ``"mutated"``
topology builder (spanning tree, up*/down* orientation, route
alternatives, ITB tables -- exactly the recomputation a real
reconfiguration would perform), and measures each scheme twice:

* a full saturation search (:func:`repro.metrics.saturation
  .find_saturation`) for the degraded throughput;
* one fixed-rate probe run with link statistics for the route-quality
  and utilisation-concentration metrics.

Cells are independent, so each ``(k, scheme)`` cell is one task of the
:class:`repro.orchestrator.Executor` -- parallel, checkpointed in the
result store, and restartable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Any, Dict, List, Optional, Tuple

from ..canon import freeze
from ..config import SimConfig
from ..experiments.profiles import Profile
from ..experiments.runner import get_graph, get_tables, run_simulation
from ..experiments.sweep import (cell_payload, resolve_executor,
                                 search_saturation)
from ..orchestrator.lease import TASKS
from ..routing.analysis import route_statistics
from ..routing.schemes import scheme_label
from ..traffic.defaults import DEFAULT_PATTERN
from .sampling import sample_failed_links

#: the two schemes the degradation table compares (the paper's main
#: contenders: original up*/down* vs ITBs with round-robin selection);
#: labels come from the scheme registry
SCHEMES: Tuple[Tuple[str, str, str], ...] = tuple(
    (routing, policy, scheme_label(routing, policy))
    for routing, policy in (("updown", "sp"), ("itb", "rr")))

#: task kind of :func:`resilience_cell_task`
RESILIENCE_TASK_FN = "resilience-cell"


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


def _mutated_kwargs(topology: str, topology_kwargs: Dict[str, Any],
                    failed_links: Tuple[int, ...]) -> Dict[str, Any]:
    return {"base": topology, "base_kwargs": dict(topology_kwargs),
            "failed_links": list(failed_links)}


def _cell_payload(topology: str, topology_kwargs: Dict[str, Any],
                  failed_links: Tuple[int, ...], routing: str,
                  policy: str, profile: Profile, start_rate: float,
                  probe_rate: float, seed: int, root: int) -> dict:
    """One cell's search and probe (orchestrator task payload)."""
    if failed_links:
        topo = "mutated"
        topo_kwargs = _mutated_kwargs(topology, topology_kwargs,
                                      failed_links)
    else:
        topo, topo_kwargs = topology, dict(topology_kwargs)
    return cell_payload(
        SimConfig(topology=topo, topology_kwargs=topo_kwargs,
                  routing=routing, policy=policy, traffic=DEFAULT_PATTERN,
                  warmup_ps=profile.sat_warmup_ps,
                  measure_ps=profile.sat_measure_ps, seed=seed),
        profile, start_rate, probe_rate=probe_rate, root=root)


def resilience_cell_task(payload: dict) -> dict:
    """Worker function: one cell's saturation search plus probe run.

    JSON in, JSON out, so cells flow through the worker pool and the
    content-addressed result store like any other campaign point.
    """
    base = SimConfig.from_dict(payload["base"])
    root = payload["root"]

    sat = search_saturation(base, payload["search"], root=root)

    probe = run_simulation(
        base.with_overrides(injection_rate=payload["probe_rate"]),
        collect_links=True, root=root)
    links = probe.link_utilization
    total = fsum(links.utilization)
    at_root = fsum(
        u for u, (a, b, _lid) in zip(links.utilization,
                                     links.channel_ends)
        if root in (a, b))

    g = get_graph(base.topology, base.topology_kwargs)
    tables = get_tables(g, (base.topology, freeze(base.topology_kwargs)),
                        base.routing, root)
    stats = route_statistics(g, tables)

    return {
        "throughput": sat.throughput,
        "converged": sat.converged,
        "runs": len(sat.runs),
        "fraction_minimal": stats.fraction_minimal,
        "avg_itbs_per_message": probe.avg_itbs_per_message or 0.0,
        "root_concentration": at_root / total if total > 0 else 0.0,
    }


TASKS.register(resilience_cell_task, RESILIENCE_TASK_FN)


def run_resilience(topology: str, profile: Profile, seed: int = 1,
                   ks: Tuple[int, ...] = (1, 2, 4),
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

    all_ks = [0] + [k for k in ks if k != 0]
    specs: List[Tuple[int, str, str, str, dict]] = []
    for k in all_ks:
        for routing, policy, label in SCHEMES:
            specs.append((k, routing, policy, label, _cell_payload(
                topology, topology_kwargs, failure_sets[k], routing,
                policy, profile, start_rate, probe_rate, seed, root)))

    results = resolve_executor(executor).run_tasks(
        RESILIENCE_TASK_FN, [p for *_, p in specs],
        labels=[f"resilience {label} k={k}"
                for k, _, _, label, _ in specs])

    cells_by_key: Dict[Tuple[int, str], ResilienceCell] = {}
    base_throughput: Dict[str, float] = {}
    for (k, routing, policy, label, _), r in zip(specs, results):
        if k == 0:
            base_throughput[label] = r["throughput"]
    for (k, routing, policy, label, _), r in zip(specs, results):
        base = base_throughput[label]
        cells_by_key[(k, label)] = ResilienceCell(
            k=k, label=label, routing=routing, policy=policy,
            failed_links=failure_sets[k],
            throughput=r["throughput"], converged=r["converged"],
            retention=r["throughput"] / base if base > 0 else 0.0,
            fraction_minimal=r["fraction_minimal"],
            avg_itbs_per_message=r["avg_itbs_per_message"],
            root_concentration=r["root_concentration"])

    baseline = {label: cells_by_key[(0, label)]
                for _, _, label in SCHEMES}
    cells = tuple(cells_by_key[(k, label)]
                  for k in all_ks if k != 0
                  for _, _, label in SCHEMES)
    return ResilienceReport(topology, topology_kwargs, seed,
                            tuple(k for k in all_ks if k != 0),
                            baseline, cells)


def torus_resilience(profile: Profile, executor=None) -> ResilienceReport:
    """Registry entry: link-failure degradation on a 4x4 torus.

    The scaled-down fabric keeps the study tractable at every profile;
    failure counts follow the issue's k in {1, 2, 4}.
    """
    return run_resilience(
        "torus", profile, seed=1, ks=(1, 2, 4),
        topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
        executor=executor)
