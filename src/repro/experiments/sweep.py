"""Sweeps and saturation searches: what every figure, table and study
is written in.

A *sweep* (:func:`sweep_rates`) runs one configuration at a list of
offered rates and collects the ``(accepted traffic, average latency)``
series that the paper plots.  Points past saturation are kept
(flagged) -- the paper's curves also bend vertical there -- but their
latency is window-dependent.

A *search* (:func:`search_all`) finds each configuration's saturation
throughput (:func:`repro.metrics.saturation.find_saturation`).  It is
adaptive -- every rate depends on the previous outcome -- so a whole
search is one task of the executor, the ``saturation`` kind
(:func:`repro.runner.saturation_task`), and the only unit of study
work besides a simulation point: a study is searches plus points, and
both are cached, resumable and fanned out the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..config import SimConfig
from ..metrics.saturation import SaturationResult, knee_throughput
from ..metrics.summary import RunSummary
from ..orchestrator import Executor, Point
from .profiles import Profile
from ..runner import SATURATION_TASK_FN


@dataclass(frozen=True)
class SweepResult:
    """One curve: a configuration swept over offered rates."""

    label: str
    runs: List[RunSummary]

    @property
    def rates(self) -> List[float]:
        return [r.offered_flits_ns_switch for r in self.runs]

    @property
    def accepted(self) -> List[float]:
        return [r.accepted_flits_ns_switch for r in self.runs]

    @property
    def latencies_ns(self) -> List[Optional[float]]:
        return [r.avg_latency_ns for r in self.runs]

    def throughput(self) -> float:
        """Saturation throughput: the knee of the curve
        (:func:`~repro.metrics.saturation.knee_throughput`)."""
        return knee_throughput(self.runs)

    def saturation_rate(self) -> Optional[float]:
        """Lowest offered rate at which the run saturated (None if the
        sweep never reached saturation)."""
        for r in self.runs:
            if r.saturated:
                return r.offered_flits_ns_switch
        return None


def resolve_executor(executor):
    """The one place ``executor=None`` gets its meaning: a plain
    :class:`repro.orchestrator.Executor` -- the caller's own thread, no
    result store, no progress lines.  Every study runs its points and
    searches through the executor this returns."""
    if executor is None:
        executor = Executor()
    return executor


def search_all(bases: Sequence[SimConfig], profile: Profile,
               start_rate: float, executor=None,
               **run_options: Any) -> List[SaturationResult]:
    """Saturation search over every config of ``bases``, in input order.

    Each search ramps from ``start_rate`` with the profile's growth
    factor and bisection depth; ``run_options`` (plain-data only,
    :data:`repro.config.RUN_OPTIONS`) go to every probe run.  Searches
    are independent of each other, so they are one batch of
    ``saturation`` tasks of ``executor`` (``None``:
    :func:`resolve_executor`'s plain one).
    """
    search = {"start_rate": start_rate, "growth": profile.sat_growth,
              "refine_steps": profile.sat_refine_steps}
    results = resolve_executor(executor).run_tasks(
        SATURATION_TASK_FN,
        [{**Point(str(i), base, run_options).payload(), "search": search}
         for i, base in enumerate(bases)],
        labels=[f"saturation {base.label()} "
                f"({base.topology}/{base.workload_label()})"
                for base in bases])
    return [SaturationResult.from_dict(r) for r in results]


def sweep_rates(base: SimConfig, rates: Sequence[float],
                stop_after_saturation: int = 1,
                executor=None,
                **runner_kwargs) -> SweepResult:
    """Run ``base`` at each rate (ascending).

    ``stop_after_saturation`` limits how many saturated points are
    simulated beyond the first (saturated runs are the slowest: the
    network is full of contending packets), preserving the curve's
    vertical bend without paying for points that carry no information.

    The points run through ``executor`` (a
    :class:`repro.orchestrator.Executor`; ``None`` means
    :func:`resolve_executor`'s plain one) in **ascending waves** of its
    worker count, so the kept prefix of the curve is the same at any
    width: a wave's surplus post-saturation points are merely simulated
    (and cached) without being reported, and one worker stops exactly
    at the early-stop point.  ``runner_kwargs`` may name only the
    plain-data run options (:data:`repro.config.RUN_OPTIONS`); a live
    ``tables=`` object goes to
    :func:`~repro.runner.run_simulation` directly.
    """
    executor = resolve_executor(executor)
    ordered = sorted(rates)
    wave = max(1, executor.workers)
    sat_seen = 0
    runs: List[RunSummary] = []
    for start in range(0, len(ordered), wave):
        batch = ordered[start:start + wave]
        configs = [base.with_overrides(injection_rate=r) for r in batch]
        for summary in executor.run_configs(configs, **runner_kwargs):
            runs.append(summary)
            if summary.saturated:
                sat_seen += 1
                if sat_seen > stop_after_saturation:
                    return SweepResult(base.label(), runs)
    return SweepResult(base.label(), runs)
