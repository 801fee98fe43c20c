"""The harness's only door into ``repro``.

Every other file of ``benchmarks/e2e`` reaches the program through the
names bound here, and every name is public: exported from a package
``__init__`` (or a documented module attribute), never ``_``-private,
never ``repro.perf`` / ``PerfRecorder``.  That is what lets later PRs
refactor internals (ROADMAP items 3 and 5) without editing the
benchmark: the end-to-end pass needs only the ``REQUIRED`` layers; the
traced pass additionally times the optional layers **from outside**
and reports the metrics of a layer with a missing symbol as
``unavailable`` instead of crashing.

``SYMBOLS`` maps layer -> {local name: "module:attr[.attr...]"}; the
dotted tail also covers the public *methods* the harness calls
(``RoutingTables.validate``, ``TrafficProcess.pregenerate`` ...), so
:func:`preflight` names a renamed method, not just a renamed function.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(CHECKOUT, "src")

SYMBOLS: Dict[str, Dict[str, str]] = {
    "config": {
        "SimConfig": "repro:SimConfig",
        "PAPER": "repro:PAPER",
        "TEST": "repro:TEST",
    },
    "topology": {
        "build_topology": "repro.topology:build",
        "check_topology": "repro.topology:check_topology",
    },
    "routing": {
        "compute_tables": "repro.routing:compute_tables",
        "make_policy": "repro.routing:make_policy",
        "validate_tables": "repro.routing:RoutingTables.validate",
    },
    # the stages of compute_tables, timed standalone per graph
    "routing.stages": {
        "build_spanning_tree": "repro.routing:build_spanning_tree",
        "orient_links": "repro.routing:orient_links",
        "compute_simple_routes": "repro.routing:compute_simple_routes",
        "enumerate_minimal_paths": "repro.routing:enumerate_minimal_paths",
        "build_itb_routes": "repro.routing:build_itb_routes",
    },
    "traffic": {
        "make_workload": "repro.traffic:make_workload",
        "per_host_interval_ps": "repro.traffic:per_host_interval_ps",
        "TrafficProcess": "repro.traffic:TrafficProcess",
        "pregenerate": "repro.traffic:TrafficProcess.pregenerate",
    },
    "sim": {
        "Simulator": "repro.sim:Simulator",
        "make_network": "repro.sim:make_network",
        "CAP_BATCH_DELIVERY": "repro.sim:CAP_BATCH_DELIVERY",
        "CAP_BATCH_INJECT": "repro.sim:CAP_BATCH_INJECT",
        "CAP_ITB_POOL": "repro.sim:CAP_ITB_POOL",
        "NO_ITB_STATS": "repro.sim:NO_ITB_STATS",
        "install_watchdog": "repro.sim:NetworkModel.install_watchdog",
        "prime_schedule": "repro.sim:NetworkModel.prime_schedule",
        "reset_stats": "repro.sim:NetworkModel.reset_stats",
        "finalize": "repro.sim:NetworkModel.finalize",
    },
    "metrics": {
        "LatencyCollector": "repro.metrics:LatencyCollector",
        "RunSummary": "repro.metrics:RunSummary",
    },
    "experiments": {
        "run_simulation": "repro:run_simulation",
        "sweep_rates": "repro:sweep_rates",
        "SweepResult": "repro:SweepResult",
        "FigureResult": "repro.experiments.figures:FigureResult",
    },
    "orchestrator": {
        "Executor": "repro.orchestrator:Executor",
        "Point": "repro.orchestrator:Point",
        "ResultStore": "repro.orchestrator:ResultStore",
        "POINT_TASK_FN": "repro.orchestrator.pool:POINT_TASK_FN",
    },
    "orchestrator.wire": {
        "send_frame": "repro.orchestrator.wire:send_frame",
        "recv_frame": "repro.orchestrator.wire:recv_frame",
    },
    "cli": {
        "cli_main": "repro.cli:main",
    },
}

#: layers the end-to-end (untraced) pass cannot run without
REQUIRED = ("config", "experiments", "orchestrator", "cli")

#: what the staged replay of ``run_simulation`` needs, all or nothing
STAGED = ("topology", "routing", "traffic", "sim", "metrics")

#: bound public names; a missing one is simply absent
L = SimpleNamespace()

#: layer -> ["local name (module:attr)", ...] that failed to resolve
MISSING: Dict[str, List[str]] = {}


def _resolve(path: str):
    module_name, _, attr_path = path.partition(":")
    obj = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    return obj


def load() -> None:
    """Bind every symbol of ``SYMBOLS`` into ``L``; record the rest."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    MISSING.clear()
    try:
        found = os.path.realpath(importlib.import_module("repro").__file__)
        if not found.startswith(os.path.realpath(SRC_DIR) + os.sep):
            MISSING["config"] = [f"repro resolves to {found}, not to "
                                 f"this checkout's src/"]
    except ImportError:
        pass                           # named symbol by symbol below
    for layer, names in SYMBOLS.items():
        for local, path in names.items():
            try:
                setattr(L, local, _resolve(path))
            except (ImportError, AttributeError) as exc:
                MISSING.setdefault(layer, []).append(
                    f"{local} ({path}): {type(exc).__name__}: {exc}")


def available(*layers: str) -> bool:
    """True when every symbol of the given layers resolved."""
    return not any(layer in MISSING for layer in layers)


def preflight() -> List[str]:
    """One line per missing symbol, fatal ones (``REQUIRED``) first."""
    lines = []
    for layer in sorted(MISSING, key=lambda la: (la not in REQUIRED, la)):
        tag = "FATAL" if layer in REQUIRED else "unavailable"
        for entry in MISSING[layer]:
            lines.append(f"{tag}: layer {layer}: missing {entry}")
    return lines


def child_env(home: str) -> Dict[str, str]:
    """Environment for spawned interpreters: the checkout's ``src`` on
    the path, and every per-user directory pointed into ``home`` so
    nothing lands in the repo's ``.repro_cache/`` or the real HOME."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HOME"] = home
    env["XDG_CACHE_HOME"] = os.path.join(home, ".cache")
    env["TMPDIR"] = home
    return env


load()
