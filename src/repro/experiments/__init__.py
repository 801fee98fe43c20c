"""Experiment harness: one registered experiment per paper table/figure.

* :func:`~repro.runner.run_simulation` (which lives outside this
  package, so a plain run never loads the catalogue) executes one
  :class:`~repro.config.SimConfig` and returns a
  :class:`~repro.metrics.summary.RunSummary`;
* :mod:`sweep` produces the latency-vs-accepted-traffic curves of the
  figures;
* :mod:`profiles` defines the *bench* (fast) and *paper* (full-scale)
  parameterisations;
* :mod:`registry` holds :data:`EXPERIMENTS`: experiment id (``fig7a``
  ... ``table3``, the studies) -> its function, declared parameters,
  renderer and claims, run by :func:`run_experiment`;
* :mod:`figures`, :mod:`tables`, :mod:`ablations` and
  :mod:`tournament` define the artefacts -- result type, ASCII
  renderer, claims -- and register each beside its definition
  (:mod:`repro.resilience` registers its two studies the same way).

Importing this package loads the whole catalogue and both task kinds
(``point``, ``saturation``): what ``repro fabric worker`` and ``repro
serve`` import before they listen.
"""

from __future__ import annotations

from ..runner import run_simulation, clear_caches
from .sweep import sweep_rates, SweepResult
from .profiles import Profile, BENCH, PAPER
from .registry import EXPERIMENTS, run_experiment
# imported for their registrations
from . import ablations, figures, tables, tournament  # noqa: F401
from .. import resilience  # noqa: F401

__all__ = [
    "run_simulation",
    "clear_caches",
    "sweep_rates",
    "SweepResult",
    "Profile",
    "BENCH",
    "PAPER",
    "EXPERIMENTS",
    "run_experiment",
]
