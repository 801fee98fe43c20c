"""Recovery campaign: reliable delivery + reconfiguration under a
mid-run link failure.

Where :mod:`campaign` asks the *steady-state* question (how much
performance remains once routing has been recomputed on a broken
fabric), this module asks the *transient* one: a cable dies under live
traffic -- how long until accepted traffic is back, how many
retransmissions did the recovery cost, and does anything stay lost?

One scenario, measured as a matrix: for each routing scheme (the
paper's UP/DOWN baseline vs ITB-RR) and each fault-handling policy
(PR 4's static ``blacklist`` vs online ``reconfigure``), the same link
dies a quarter into the measurement window at several offered loads.
Reliable delivery is on everywhere -- the policies differ only in what
the NICs route with afterwards -- so the table isolates what table
recomputation buys on top of retransmission.

Each cell is one plain simulation point (a config plus JSON-safe
runner kwargs carrying the fault plan and the two protocol parameter
sets), so the matrix is a point list for the orchestrator's executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..config import SimConfig
from ..experiments.profiles import Profile
from ..experiments.runner import get_graph
from ..experiments.sweep import resolve_executor
from ..orchestrator import Point
from ..sim.faults import FaultPlan
from ..sim.reliable import ReconfigParams, ReliableParams
from ..traffic.defaults import DEFAULT_PATTERN
from .campaign import SCHEMES
from .sampling import sample_failed_links

#: offered loads of the goodput-vs-load columns, flits/ns/switch
DEFAULT_RATES: Tuple[float, ...] = (0.01, 0.02, 0.03)


@dataclass(frozen=True)
class RecoveryCell:
    """One (scheme, policy, offered load) entry of the recovery table."""

    label: str
    routing: str
    policy: str
    #: fault-handling policy: ``"blacklist"`` or ``"reconfigure"``
    mode: str
    #: nominal offered load, flits/ns/switch
    rate: float
    #: measured goodput (unique deliveries), flits/ns/switch
    goodput: float
    messages_generated: int
    messages_delivered: int
    #: retransmitted attempts per generated message
    retransmissions_per_message: float
    #: duplicate copies per delivered message
    duplicate_rate: float
    permanent_losses: int
    dropped_in_flight: int
    dropped_unroutable: int
    reconfigurations: int
    #: fault -> accepted traffic back within threshold; ``None`` when
    #: the run never recovers inside the window
    time_to_recover_ns: Optional[float]


@dataclass(frozen=True)
class RecoveryReport:
    """The full recovery study for one topology, fault and seed."""

    topology: str
    topology_kwargs: Dict[str, Any]
    seed: int
    #: the cable that dies
    failed_link: int
    #: failure instant, ns from simulation start
    fault_ns: float
    #: mapper detection latency, ns
    detection_ns: float
    #: cells ordered by (scheme, mode, rate)
    cells: Tuple[RecoveryCell, ...]


def run_recovery(topology: str, profile: Profile, seed: int = 1,
                 rates: Tuple[float, ...] = DEFAULT_RATES,
                 topology_kwargs: Optional[Dict[str, Any]] = None,
                 root: int = 0,
                 reliable: Optional[ReliableParams] = None,
                 detection_latency_ps: Optional[int] = None,
                 executor=None) -> RecoveryReport:
    """Run the recovery matrix for one topology, fault and seed.

    The failed cable is the seed's first connectivity-preserving
    sample, so both policies face the *same* fault; it dies a quarter
    into the measurement window, leaving three quarters to observe the
    recovery.
    """
    topology_kwargs = dict(topology_kwargs or {})
    g = get_graph(topology, topology_kwargs)
    failed_link = sample_failed_links(g, 1, seed)[0]
    fault_ps = profile.warmup_ps + profile.measure_ps // 4
    fault_plan = FaultPlan.at((fault_ps, failed_link))
    reliable = reliable or ReliableParams()
    if detection_latency_ps is None:
        detection_latency_ps = ReconfigParams().detection_latency_ps

    runner_kwargs = {
        mode: {"root": root, "fault_plan": fault_plan.to_dict(),
               "reliable": reliable.to_dict(),
               "reconfig": ReconfigParams(
                   policy=mode,
                   detection_latency_ps=detection_latency_ps).to_dict()}
        for mode in ("blacklist", "reconfigure")}
    specs = [(routing, policy, label, mode, rate)
             for routing, policy, label in SCHEMES
             for mode in runner_kwargs
             for rate in rates]
    summaries = resolve_executor(executor).run_points([
        Point(f"recovery {label} {mode} rate={rate}",
              SimConfig(topology=topology, topology_kwargs=topology_kwargs,
                        routing=routing, policy=policy,
                        traffic=DEFAULT_PATTERN, injection_rate=rate,
                        warmup_ps=profile.warmup_ps,
                        measure_ps=profile.measure_ps, seed=seed),
              runner_kwargs[mode])
        for routing, policy, label, mode, rate in specs])

    cells = []
    for (routing, policy, label, mode, rate), s in zip(specs, summaries):
        gen = s.messages_generated
        dlv = s.messages_delivered
        cells.append(RecoveryCell(
            label=label, routing=routing, policy=policy, mode=mode,
            rate=rate, goodput=s.accepted_flits_ns_switch,
            messages_generated=gen, messages_delivered=dlv,
            retransmissions_per_message=(s.retransmissions / gen
                                         if gen else 0.0),
            duplicate_rate=(s.duplicate_deliveries / dlv
                            if dlv else 0.0),
            permanent_losses=s.permanent_losses,
            dropped_in_flight=s.dropped_in_flight,
            dropped_unroutable=s.dropped_unroutable,
            reconfigurations=s.reconfigurations,
            time_to_recover_ns=s.time_to_recover_ns))
    return RecoveryReport(topology, topology_kwargs, seed, failed_link,
                          fault_ps / 1_000, detection_latency_ps / 1_000,
                          tuple(cells))


def torus_recovery(profile: Profile, executor=None) -> RecoveryReport:
    """Registry entry: mid-run link failure on the 4-ary 2-cube.

    The 4x4 torus with two hosts per switch is the acceptance fabric:
    small enough that every (scheme, policy, load) cell runs in
    seconds, dense enough that a single dead cable actually bends
    routes.  With reconfiguration on, permanent losses must be zero --
    the fault never partitions the fabric, so every pair stays
    connected and every message is eventually retransmitted home.
    """
    return run_recovery(
        "torus", profile, seed=1,
        topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
        executor=executor)
