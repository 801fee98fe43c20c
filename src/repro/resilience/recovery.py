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
The study is ``repro experiment recovery``, registered at the foot of
this module with its one claim: reconfiguration loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..experiments.profiles import Profile
from ..experiments.registry import EXPERIMENTS, Claim, Experiment
from ..runner import get_graph
from ..experiments.sweep import resolve_executor
from ..orchestrator import Point
from ..registry import Kwarg, comma_list
from ..sim.faults import FaultPlan
from ..sim.reliable import ReconfigParams, ReliableParams
from ..topology import size_kwargs
from ..traffic.defaults import DEFAULT_PATTERN
from .campaign import FABRIC_KWARGS, SCHEMES, sizes_line
from .sampling import sample_failed_links


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


def run_recovery(topology: str, profile: Profile,
                 rates: Tuple[float, ...], seed: int = 1,
                 topology_kwargs: Optional[Dict[str, Any]] = None,
                 root: int = 0,
                 reliable: Optional[ReliableParams] = None,
                 detection_latency_ps: Optional[int] = None,
                 executor=None) -> RecoveryReport:
    """Run the recovery matrix for one topology, fault and seed;
    ``rates`` are the offered loads of the goodput-vs-load columns.

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

    # the blacklist rows run without the mapper: the engine then keeps
    # filtering the original tables
    blacklist = {"root": root, "fault_plan": fault_plan.to_dict(),
                 "reliable": reliable.to_dict()}
    runner_kwargs = {
        "blacklist": blacklist,
        "reconfigure": {**blacklist, "reconfig": ReconfigParams(
            detection_latency_ps=detection_latency_ps).to_dict()}}
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


def _recovery_row(cell: RecoveryCell) -> str:
    ttr = (f"{cell.time_to_recover_ns:9.0f}"
           if cell.time_to_recover_ns is not None else "      n/a")
    loss = cell.permanent_losses
    return (f"{cell.label:8s} {cell.mode:11s} {cell.rate:7.3f} "
            f"{cell.goodput:8.4f} "
            f"{cell.retransmissions_per_message:8.3f} "
            f"{cell.duplicate_rate:6.1%} {loss:5d} "
            f"{cell.dropped_in_flight:5d} {cell.dropped_unroutable:5d} "
            f"{ttr}")


def render_recovery_table(report: RecoveryReport) -> str:
    """The recovery study as a fixed-width table.

    ``perm`` is the headline column: messages abandoned after the
    retransmission budget.  Under the ``reconfigure`` policy it must
    be zero whenever the fault leaves the fabric connected -- that is
    the reliable-delivery guarantee.  ``rtx/msg`` and ``dup`` show
    what the recovery cost; ``ttr`` how long accepted traffic took to
    return to the pre-fault level.
    """
    lines: List[str] = [
        "Recovery after a mid-run link failure, "
        f"{sizes_line(report.topology, report.topology_kwargs)}, "
        f"seed {report.seed}",
        f"link {report.failed_link} dies at "
        f"{report.fault_ns:.0f} ns; mapper detection latency "
        f"{report.detection_ns:.0f} ns; reliable delivery on",
        f"{'scheme':8s} {'policy':11s} {'rate':>7s} "
        f"{'goodput':>8s} {'rtx/msg':>8s} {'dup':>6s} "
        f"{'perm':>5s} {'drop':>5s} {'unrt':>5s} {'ttr(ns)':>9s}"]
    lines += [_recovery_row(cell) for cell in report.cells]
    return "\n".join(lines)


def recovery(profile: Profile, executor=None, topology: str = "torus",
             rows: int = 4, cols: int = 4, hosts_per_switch: int = 2,
             rates: str = "0.01,0.02,0.03", seed: int = 1) -> RecoveryReport:
    """A cable dies mid-run at each of the offered loads ``rates``."""
    return run_recovery(
        topology, profile, comma_list(rates, float, "rates"), seed=seed,
        topology_kwargs=size_kwargs(topology, rows, cols, hosts_per_switch),
        executor=executor)


def _recovery_claims(report: RecoveryReport) -> List[Claim]:
    # the fault never partitions the fabric, so every pair stays
    # connected and every message is eventually retransmitted home
    cells = [c for c in report.cells if c.mode == "reconfigure"]
    lost = sum(c.permanent_losses for c in cells)
    return [(f"reconfigure policy: {lost} messages permanently lost over "
             f"its {len(cells)} cells, 0 expected (the fault leaves the "
             f"fabric connected)", lost == 0)]


EXPERIMENTS.register(Experiment(
    "recovery", "recovery-table",
    "Reliable-delivery recovery from a mid-run link failure, 4x4 torus",
    recovery, render_recovery_table, claims=_recovery_claims,
    kwargs=FABRIC_KWARGS + (
        Kwarg("rates", str, "0.01,0.02,0.03",
              "comma-separated offered loads, flits/ns/switch"),
        Kwarg("seed", int, 1, "selects the failed link and the traffic"))))
