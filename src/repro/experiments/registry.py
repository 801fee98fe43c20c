"""Experiment index: the one place a result is described, run,
reported and checked.

``run_experiment("fig7a", profile)`` regenerates one paper artefact.
:data:`EXPERIMENTS` (a :class:`repro.registry.Registry`) is what the
CLI, ``tests/test_paper_claims.py`` and `examples/` iterate over.  The
docstring of each callable carries the paper's reported numbers, and
each entry carries the renderer of its result and -- for the paper's
figures and tables and the ablation studies -- the paper's claims
about it, so ``repro experiment <id>`` prints and checks any
registered artefact without knowing its kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from . import ablations, adversary, figures, tables, tournament
from ..registry import Registry
from ..resilience import campaign as resilience_campaign
from ..resilience import recovery as resilience_recovery
from ..resilience.report import (render_recovery_table,
                                 render_resilience_table)
from .plot import render_curves
from .profiles import BENCH, Profile
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
    #: what the paper (or, for an extension, the study) concludes from
    #: the result, as checks on it; None when nothing is claimed
    claims: Optional[Callable[[Any], List[figures.Claim]]] = None


EXPERIMENTS: Registry[Experiment] = Registry("experiment")


def _plot_panel(fig: figures.FigureResult) -> str:
    return render_curves(fig.series, title=fig.title)


#: how each kind of shipped artefact prints: kind -> (render, plot)
_RENDERERS = {
    "latency-panel": (render_figure, _plot_panel),
    "link-map": (render_link_maps, None),
    "hotspot-table": (render_hotspot_table, None),
    "point-table": (ablations.render_point_table, None),
    "resilience-table": (render_resilience_table, None),
    "recovery-table": (render_recovery_table, None),
    "tournament-table": (tournament.render_tournament, None),
    "stability-table": (adversary.render_stability_table, None),
}

#: exp_id -> claims, from the modules that define the experiments
_CLAIMS = {**figures.CLAIMS, **tables.CLAIMS, **ablations.CLAIMS}


def _register(exp_id: str, kind: str, description: str,
              fn: Callable[..., Any]) -> None:
    EXPERIMENTS.register(
        Experiment(exp_id, kind, description, fn, *_RENDERERS[kind],
                   claims=_CLAIMS.get(exp_id)),
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
_register("irregular", "latency-panel",
          "Uniform traffic, 32-switch irregular network",
          figures.irregular)
_register("mesh-dor", "latency-panel",
          "Uniform traffic, 8x8 mesh: UP/DOWN vs ITB-RR vs "
          "dimension-order", figures.mesh_dor)
_register("itb-overhead", "point-table",
          "In-transit overhead scaled x0.5-x16, torus",
          ablations.itb_overhead)
_register("route-cap", "point-table",
          "Route alternatives kept per pair (1-10), torus",
          ablations.route_cap)
_register("root-placement", "point-table",
          "Spanning-tree root placement, torus and CPLANT",
          ablations.root_placement)
_register("msglen", "point-table",
          "32 / 512 / 1024-byte messages, torus", ablations.msglen)
_register("adaptive", "point-table",
          "Latency-adaptive source policy vs ITB-RR, torus",
          ablations.adaptive)
_register("link-failure", "point-table",
          "One failed cable with recomputed tables, torus",
          ablations.link_failure)
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


def render_claims(exp: Experiment, result: Any,
                  profile: Profile) -> Optional[str]:
    """The verdict section of ``exp``'s report, or None.

    Claims are statements about saturation behaviour, calibrated at
    the bench profile; under shorter windows (the test profile) a knee
    is mostly noise and no verdict is given.
    """
    if exp.claims is None or profile.measure_ps < BENCH.measure_ps:
        return None
    verdicts = exp.claims(result)
    lines = [f"-- claims ({sum(ok for _, ok in verdicts)} of "
             f"{len(verdicts)} hold)"]
    lines += [f"   {'holds' if ok else 'FAILS'}  {statement}"
              for statement, ok in verdicts]
    return "\n".join(lines)
