"""(r, b)-adversarial stability study (extension experiment).

Adversarial queueing theory asks whether a routing/scheduling
discipline keeps queues bounded under the *worst* injection pattern
that still respects a long-run rate: an (r, b)-adversary may inject,
into any window [s, t], at most ``r (t - s) + b`` messages per host
(arXiv cs/0203030 studies exactly this model for source-routed
networks).  The :mod:`repro.traffic` registry's ``adversarial``
arrival process realises the worst case allowed by that envelope --
phase-aligned volleys of ``b`` messages at long-run rate ``r``.

The experiment, per routing scheme:

1. find the saturation rate under the paper's constant-rate load model
   (one :func:`~repro.experiments.sweep.search_all` over the schemes);
2. re-run at fixed fractions of the last stable rate with the
   adversarial arrival process, windows stretched to cover several
   full adversary cycles (one cycle = ``b`` mean intervals -- a window
   shorter than that only ever sees the opening volley's transient):
   one wave of ordinary simulation points;
3. report the backlog growth over the measurement window and the
   stability verdict: **stable** iff the backlog stayed bounded
   (:attr:`~repro.metrics.summary.RunSummary.saturated` is False).

A scheme is *adversary-stable* when every operating point below its
saturation rate keeps a bounded backlog even under the coordinated
volleys; losing stability at a fraction well below 1.0 means the
scheme's headroom figure is optimistic for bursty tenants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..canon import PlainData
from ..config import SimConfig
from ..traffic.base import per_host_interval_ps
from .profiles import Profile
from .registry import EXPERIMENTS, Experiment
from .runner import get_graph
from .sweep import resolve_executor, search_all

#: fractions of the last stable (constant-arrivals) rate probed under
#: the adversary
DEFAULT_FRACTIONS = (0.3, 0.6, 0.9)

#: adversary cycles the measurement window must cover (fewer measures
#: only the opening-volley transient, not the steady state)
MEASURE_CYCLES = 4
WARMUP_CYCLES = 2


@dataclass(frozen=True)
class StabilityCell(PlainData):
    """One (scheme, load fraction) probe under the adversary."""

    routing: str
    policy: str
    label: str
    #: fraction of the scheme's last stable constant-arrivals rate
    fraction: float
    #: offered load of this probe, flits/ns/switch
    rate: float
    accepted: float
    avg_latency_ns: Optional[float]
    #: messages gained by the backlog over the measurement window
    backlog_growth: int
    messages_generated: int
    #: bounded-backlog verdict: the run did not saturate
    stable: bool


@dataclass(frozen=True)
class StabilityReport(PlainData):
    """Full adversarial-stability study for one topology; its plain-data
    form is ``repro experiment adversary --json``."""

    topology: str
    topology_label: str
    seed: int
    #: adversary volley size b (messages banked per cycle)
    burst: int
    fractions: Tuple[float, ...]
    #: per scheme label: saturation throughput under constant arrivals
    saturation: Dict[str, float]
    #: per scheme label: last stable constant-arrivals rate
    stable_rate: Dict[str, float]
    cells: Tuple[StabilityCell, ...]


def run_adversary_study(schemes: Sequence[Tuple[str, str]],
                        topology: str,
                        topology_kwargs: Dict[str, Any],
                        topology_label: str,
                        profile: Profile,
                        seed: int = 1,
                        burst: int = 8,
                        start_rate: float = 0.005,
                        fractions: Sequence[float] = DEFAULT_FRACTIONS,
                        executor=None) -> StabilityReport:
    """Run the study for every ``(routing, policy)`` pair given.

    The probe windows scale with the adversary cycle (``burst`` mean
    inter-message intervals at the probe rate): the cycle grows as the
    rate shrinks, so fixed profile windows would cover less and less
    of the steady state at the low-load fractions.
    """
    executor = resolve_executor(executor)
    g = get_graph(topology, topology_kwargs)
    bases = [SimConfig(topology=topology,
                       topology_kwargs=dict(topology_kwargs),
                       routing=routing, policy=policy,
                       warmup_ps=profile.sat_warmup_ps,
                       measure_ps=profile.sat_measure_ps, seed=seed)
             for routing, policy in schemes]
    searches = search_all(bases, profile, start_rate, executor)

    probes: List[Tuple[SimConfig, float]] = []
    for base, sat in zip(bases, searches):
        if math.isnan(sat.last_stable_rate):
            continue
        for fraction in fractions:
            rate = fraction * sat.last_stable_rate
            cycle_ps = burst * per_host_interval_ps(
                rate, base.message_bytes, g)
            probes.append((base.with_overrides(
                injection_rate=rate, arrival="adversarial",
                arrival_kwargs={"burst": burst},
                warmup_ps=max(base.warmup_ps, WARMUP_CYCLES * cycle_ps),
                measure_ps=max(base.measure_ps,
                               MEASURE_CYCLES * cycle_ps)), fraction))
    runs = executor.run_configs([cfg for cfg, _ in probes])

    cells = tuple(
        StabilityCell(
            routing=cfg.routing, policy=cfg.policy, label=cfg.label(),
            fraction=fraction, rate=cfg.injection_rate,
            accepted=s.accepted_flits_ns_switch,
            avg_latency_ns=s.avg_latency_ns,
            backlog_growth=s.backlog_growth,
            messages_generated=s.messages_generated,
            stable=not s.saturated)
        for (cfg, fraction), s in zip(probes, runs))
    labels = [base.label() for base in bases]
    return StabilityReport(
        topology, topology_label, seed, burst, tuple(fractions),
        {label: sat.throughput for label, sat in zip(labels, searches)},
        {label: sat.last_stable_rate
         for label, sat in zip(labels, searches)},
        cells)


def render_stability_table(report: StabilityReport) -> str:
    """ASCII table: per scheme, one row per probed load fraction."""
    out = [f"(r, b)-adversarial stability, {report.topology_label} "
           f"(volley b={report.burst}, seed {report.seed})",
           "stable = backlog bounded over the measurement window "
           "(several full adversary cycles)"]
    name_w = max([len(label) for label in report.saturation] + [6]) + 2
    out.append(f"{'scheme':<{name_w}}{'sat thr':>9} {'frac':>6} "
               f"{'offered':>9} {'accepted':>9} {'lat(ns)':>9} "
               f"{'backlog':>8}  verdict")
    for label in report.saturation:
        first = True
        for c in report.cells:
            if c.label != label:
                continue
            name = label if first else ""
            thr = f"{report.saturation[label]:9.4f}" if first else " " * 9
            first = False
            lat = (f"{c.avg_latency_ns:9.0f}"
                   if c.avg_latency_ns is not None else "      n/a")
            out.append(
                f"{name:<{name_w}}{thr} {c.fraction:6.2f} "
                f"{c.rate:9.4f} {c.accepted:9.4f} {lat} "
                f"{c.backlog_growth:8d}  "
                f"{'stable' if c.stable else 'UNSTABLE'}")
        if first:
            out.append(f"{label:<{name_w}}"
                       f"{report.saturation[label]:9.4f}  "
                       "(no stable constant-rate point found)")
    return "\n".join(out)


def adversary(profile: Profile, executor=None) -> StabilityReport:
    """up*/down* vs ITB on the scaled-down 4x4 torus.

    The paper's two schemes, each with its natural policy, probed at
    {0.3, 0.6, 0.9} of their own last stable rate under a b=8
    adversary.  Below saturation both should hold a bounded backlog;
    the fraction at which a scheme first goes unstable is its real
    headroom under worst-case bursty injection.
    """
    return run_adversary_study(
        (("updown", "rr"), ("itb", "rr")),
        "torus", {"rows": 4, "cols": 4, "hosts_per_switch": 2},
        "torus 4x4", profile, seed=1, burst=8, executor=executor)


EXPERIMENTS.register(Experiment(
    "adversary", "stability-table",
    "(r, b)-adversarial stability: up*/down* vs ITB backlog under "
    "worst-case bursty injection, 4x4 torus",
    adversary, render_stability_table, to_json=StabilityReport.to_dict))
