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

from importlib import import_module

__version__ = "1.0.0"

#: submodule -> the public names it lends the package.  A name is
#: imported on its first access (PEP 562), so ``import repro`` loads no
#: submodule and a fresh process pays only for the layers it uses
_EXPORTS = {
    ".config": ("MyrinetParams", "PAPER_PARAMS", "SimConfig"),
    ".runner": ("run_simulation", "clear_caches"),
    ".experiments.sweep": ("sweep_rates", "SweepResult"),
    ".experiments.profiles": ("Profile", "BENCH", "PAPER", "TEST"),
    ".experiments.registry": ("EXPERIMENTS", "run_experiment"),
    ".metrics": ("LatencyCollector", "LinkUtilization", "RunSummary",
                 "SaturationResult", "collect_link_stats",
                 "find_saturation"),
    ".perf": ("PerfReport", "profile_to"),
    ".routing": ("RoutingTables", "SourceRoute", "compute_tables",
                 "make_policy", "route_statistics"),
    ".sim": ("DeadlockError", "Packet", "PacketTracer", "format_trace",
             "Simulator", "NetworkModel", "UnsupportedCapability",
             "LinkChannelStats", "ItbStats", "make_network",
             "WormholeNetwork", "FlitLevelNetwork"),
    ".experiments.compare": ("ComparisonResult", "compare_configs"),
    ".orchestrator": ("CampaignError", "Executor", "Point", "ResultStore",
                      "WorkerPool"),
    ".topology": ("NetworkGraph", "build", "build_torus",
                  "build_torus_express", "build_cplant", "build_irregular",
                  "build_mesh", "check_topology"),
    ".traffic": ("TrafficPattern", "ArrivalProcess", "TrafficProcess",
                 "make_pattern", "make_arrival", "make_workload"),
}

__all__ = [*(name for names in _EXPORTS.values() for name in names),
           "__version__"]


def _lazy_exports(namespace: dict, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``: a name of ``exports`` (submodule ->
    names) is imported from its submodule on first access, then kept
    in ``namespace``."""
    module_of = {name: module for module, names in exports.items()
                 for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *module_of})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
