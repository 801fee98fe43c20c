"""Latency-vs-traffic sweeps: the raw material of the paper's figures.

A sweep runs one configuration at a list of offered rates and collects
the ``(accepted traffic, average latency)`` series that the paper plots.
Points past saturation are kept (flagged) -- the paper's curves also
bend vertical there -- but their latency is window-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..config import SimConfig
from ..metrics.saturation import SaturationResult, find_saturation
from ..metrics.summary import RunSummary
from ..orchestrator import Executor
from .profiles import Profile
from .runner import run_simulation


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
        """Saturation throughput: the knee of the curve.

        The highest accepted traffic among *non-saturated* points --
        i.e. the load the network sustains while still tracking offered
        traffic.  Past the knee, accepted traffic can keep creeping up
        (flows that avoid the congested region still get through), but
        latency is unbounded there, so the paper reads the knee.  When
        every point saturated (the sweep started too high) the overall
        maximum is returned as a fallback.
        """
        stable = [r.accepted_flits_ns_switch for r in self.runs
                  if not r.saturated]
        return max(stable) if stable else max(self.accepted)

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
    cells through the executor this returns."""
    if executor is None:
        executor = Executor()
    return executor


def cell_payload(base: SimConfig, profile: Profile, start_rate: float,
                 **extras: Any) -> Dict[str, Any]:
    """The one shape of a study cell's task payload.

    ``base`` travels whole, so no :class:`SimConfig` field can be left
    behind on the way to a worker; ``search`` holds the keyword
    arguments of :func:`search_saturation`; ``extras`` are the study's
    own JSON-safe values.
    """
    return {"base": base.to_dict(),
            "search": {"start_rate": start_rate,
                       "growth": profile.sat_growth,
                       "refine_steps": profile.sat_refine_steps},
            **extras}


def search_saturation(base: SimConfig, search: Mapping[str, Any],
                      **runner_kwargs: Any) -> SaturationResult:
    """Saturation search over ``base`` with only the rate varied."""
    return find_saturation(
        lambda rate: run_simulation(
            base.with_overrides(injection_rate=rate), **runner_kwargs),
        **search)


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
    :func:`~repro.experiments.runner.run_simulation` directly.
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
