"""Experiment index: id -> callable, mirroring DESIGN.md's table.

``run_experiment("fig7a", profile)`` regenerates one paper artefact.
:data:`EXPERIMENTS` (a :class:`repro.registry.Registry`) is what
`benchmarks/` and `examples/` iterate over, the docstring of each
callable carries the paper's reported numbers, and each entry carries
the renderer of its result, so ``repro experiment <id>`` prints any
registered artefact without knowing its kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import adversary, figures, tables, tournament
from ..registry import Registry
from ..resilience import campaign as resilience_campaign
from ..resilience import recovery as resilience_recovery
from ..resilience.report import (render_recovery_table,
                                 render_resilience_table)
from .plot import render_curves
from .profiles import Profile
from .report import render_figure, render_hotspot_table, render_link_maps


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact."""

    exp_id: str
    kind: str  # a key of _RENDERERS for the shipped artefacts
    description: str
    fn: Callable[..., Any]
    #: text report of ``fn``'s result
    render: Callable[[Any], str]
    #: ASCII plot of the result (``--plot``); None when it has no curves
    plot: Optional[Callable[[Any], str]] = None


EXPERIMENTS: Registry[Experiment] = Registry("experiment")


def _plot_panel(fig: figures.FigureResult) -> str:
    return render_curves(fig.series, title=fig.title)


#: how each kind of shipped artefact prints: kind -> (render, plot)
_RENDERERS = {
    "latency-panel": (render_figure, _plot_panel),
    "link-map": (render_link_maps, None),
    "hotspot-table": (render_hotspot_table, None),
    "resilience-table": (render_resilience_table, None),
    "recovery-table": (render_recovery_table, None),
    "tournament-table": (tournament.render_tournament, None),
    "stability-table": (adversary.render_stability_table, None),
}


def _register(exp_id: str, kind: str, description: str,
              fn: Callable[..., Any]) -> None:
    EXPERIMENTS.register(
        Experiment(exp_id, kind, description, fn, *_RENDERERS[kind]),
        exp_id)


_register("fig7a", "latency-panel",
          "Uniform traffic, 2-D torus", figures.fig7a)
_register("fig7b", "latency-panel",
          "Uniform traffic, express torus", figures.fig7b)
_register("fig7c", "latency-panel",
          "Uniform traffic, CPLANT", figures.fig7c)
_register("fig8", "link-map",
          "Link utilisation, torus, uniform", figures.fig8)
_register("fig9", "link-map",
          "Link utilisation, express torus, uniform", figures.fig9)
_register("fig10a", "latency-panel",
          "Bit-reversal, 2-D torus", figures.fig10a)
_register("fig10b", "latency-panel",
          "Bit-reversal, express torus", figures.fig10b)
_register("fig11", "link-map",
          "Link utilisation, torus, 10% hotspot", figures.fig11)
_register("fig12a", "latency-panel",
          "Local traffic, 2-D torus", figures.fig12a)
_register("fig12b", "latency-panel",
          "Local traffic, express torus", figures.fig12b)
_register("fig12c", "latency-panel",
          "Local traffic, CPLANT", figures.fig12c)
_register("table1", "hotspot-table",
          "Hotspot throughput, 2-D torus", tables.table1)
_register("table2", "hotspot-table",
          "Hotspot throughput, express torus", tables.table2)
_register("table3", "hotspot-table",
          "Hotspot throughput, CPLANT", tables.table3)
_register("resilience", "resilience-table",
          "Graceful degradation under link failures, 4x4 torus",
          resilience_campaign.torus_resilience)
_register("recovery", "recovery-table",
          "Reliable-delivery recovery from a mid-run link failure, "
          "4x4 torus", resilience_recovery.torus_recovery)
_register("tournament", "tournament-table",
          "Every registered scheme x {torus, mesh} x {uniform, "
          "bit-reversal, incast, uniform+onoff} with failure retention",
          tournament.default_tournament)
_register("adversary", "stability-table",
          "(r, b)-adversarial stability: up*/down* vs ITB backlog "
          "under worst-case bursty injection, 4x4 torus",
          adversary.torus_adversary)


def run_experiment(exp_id: str, profile: Profile,
                   executor: Any = None) -> Any:
    """Run one registered experiment under ``profile``.

    Every simulation point of the artefact runs through ``executor``
    (a :class:`repro.orchestrator.Executor`: its workers, its result
    store); ``None`` is :func:`~.sweep.resolve_executor`'s plain one.
    Every registered callable accepts the keyword.
    """
    return EXPERIMENTS.get(exp_id).fn(profile, executor=executor)
