"""repro -- reproduction of *Improving the Performance of Regular
Networks with Source Routing* (Flich, López, Malumbres, Duato; ICPP 2000).

A Myrinet-calibrated discrete-event network simulator plus the
up*/down* and in-transit-buffer (ITB) source-routing algorithms the
paper evaluates, and a harness regenerating every table and figure of
its evaluation section.

Quickstart::

    from repro import SimConfig, run_simulation

    cfg = SimConfig(topology="torus", routing="itb", policy="rr",
                    traffic="uniform", injection_rate=0.02)
    summary = run_simulation(cfg)
    print(summary.oneline())

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from __future__ import annotations

from .config import MyrinetParams, PAPER_PARAMS, SimConfig
from .experiments.runner import run_simulation, clear_caches
from .experiments.sweep import sweep_rates, SweepResult
from .experiments.profiles import Profile, BENCH, PAPER, TEST
from .experiments.registry import EXPERIMENTS, run_experiment
from .metrics import (LatencyCollector, LinkUtilization, RunSummary,
                      SaturationResult, collect_link_stats, find_saturation)
from .perf import PerfReport, profile_to
from .routing import (RoutingTables, SourceRoute, compute_tables,
                      make_policy, route_statistics)
from .experiments.compare import ComparisonResult, compare_configs
from . import resilience  # noqa: F401  (registers its two studies)
from .orchestrator import (CampaignError, Executor, Point, ResultStore,
                           WorkerPool)
from .sim import (DeadlockError, FlitLevelNetwork, ItbStats,
                  LinkChannelStats, NetworkModel, Packet, PacketTracer,
                  Simulator, UnsupportedCapability, WormholeNetwork,
                  format_trace, make_network)
from .topology import (NetworkGraph, build, build_cplant, build_irregular,
                       build_mesh, build_torus, build_torus_express,
                       check_topology)
from .traffic import (ArrivalProcess, TrafficPattern, TrafficProcess,
                      make_arrival, make_pattern, make_workload)

__version__ = "1.0.0"

__all__ = [
    "MyrinetParams",
    "PAPER_PARAMS",
    "SimConfig",
    "run_simulation",
    "clear_caches",
    "sweep_rates",
    "SweepResult",
    "Profile",
    "BENCH",
    "PAPER",
    "TEST",
    "EXPERIMENTS",
    "run_experiment",
    "LatencyCollector",
    "LinkUtilization",
    "RunSummary",
    "SaturationResult",
    "collect_link_stats",
    "find_saturation",
    "PerfReport",
    "profile_to",
    "RoutingTables",
    "SourceRoute",
    "compute_tables",
    "make_policy",
    "route_statistics",
    "DeadlockError",
    "Packet",
    "PacketTracer",
    "format_trace",
    "Simulator",
    "NetworkModel",
    "UnsupportedCapability",
    "LinkChannelStats",
    "ItbStats",
    "make_network",
    "WormholeNetwork",
    "FlitLevelNetwork",
    "ComparisonResult",
    "compare_configs",
    "CampaignError",
    "Executor",
    "Point",
    "ResultStore",
    "WorkerPool",
    "NetworkGraph",
    "build",
    "build_torus",
    "build_torus_express",
    "build_cplant",
    "build_irregular",
    "build_mesh",
    "check_topology",
    "TrafficPattern",
    "ArrivalProcess",
    "TrafficProcess",
    "make_pattern",
    "make_arrival",
    "make_workload",
    "__version__",
]
