"""Regeneration of every figure in the paper's evaluation section.

Latency-vs-traffic panels (Figures 7, 10, 12) compare UP/DOWN, ITB-SP
and ITB-RR on one topology/pattern; link-utilisation maps (Figures 8, 9,
11) snapshot per-link load at fixed injection rates.  Each function
returns a structured result that :mod:`repro.experiments.report` renders
as ASCII and that EXPERIMENTS.md quotes.

Rate grids are chosen to bracket the paper's reported saturation points
with headroom, so the curves show both the flat region and the vertical
bend for every routing algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SimConfig
from ..metrics.linkstats import LinkUtilization
from ..metrics.summary import RunSummary
from .profiles import Profile
from .sweep import SweepResult, resolve_executor, sweep_rates

#: the three configurations every latency panel compares
ROUTINGS: Tuple[Tuple[str, str], ...] = (
    ("updown", "sp"), ("itb", "sp"), ("itb", "rr"))


@dataclass(frozen=True)
class FigureResult:
    """One latency-vs-traffic panel."""

    fig_id: str
    title: str
    series: List[SweepResult]
    #: paper-reported saturation throughputs per label (for
    #: EXPERIMENTS.md comparisons); None when the paper gives no number
    paper_throughput: Dict[str, Optional[float]]

    def measured_throughput(self) -> Dict[str, float]:
        return {s.label: s.throughput() for s in self.series}


@dataclass(frozen=True)
class LinkMapResult:
    """One link-utilisation snapshot (a panel of Figures 8/9/11)."""

    fig_id: str
    title: str
    label: str
    rate: float
    utilization: LinkUtilization
    summary: RunSummary


def _latency_panel(fig_id: str, title: str, topology: str, traffic: str,
                   rates: Sequence[float], profile: Profile,
                   paper_throughput: Dict[str, Optional[float]],
                   traffic_kwargs: Optional[dict] = None,
                   seed: int = 1, thin: bool = True,
                   executor=None) -> FigureResult:
    """Sweep the three routing configurations over a rate grid.

    ``thin=False`` keeps the full grid even under the bench profile --
    used where the panel's conclusion is a *ratio* of knees and grid
    clipping would distort it (Figure 12's modest local-traffic gains).
    ``executor`` is handed to :func:`~.sweep.sweep_rates`.
    """
    series = []
    grid = profile.thin(list(rates)) if thin else list(rates)
    for routing, policy in ROUTINGS:
        base = SimConfig(
            topology=topology, routing=routing, policy=policy,
            traffic=traffic, traffic_kwargs=traffic_kwargs or {},
            warmup_ps=profile.warmup_ps, measure_ps=profile.measure_ps,
            seed=seed)
        series.append(sweep_rates(base, grid, executor=executor))
    return FigureResult(fig_id, title, series, paper_throughput)


# -- Figure 7: uniform traffic ------------------------------------------------

#: rate grids bracketing the paper's saturation points
_RATES_TORUS_UNIFORM = [0.004, 0.008, 0.011, 0.014, 0.017, 0.021,
                        0.025, 0.029, 0.033, 0.038]
_RATES_EXPRESS_UNIFORM = [0.02, 0.04, 0.055, 0.07, 0.085, 0.10,
                          0.115, 0.13, 0.15]
_RATES_CPLANT_UNIFORM = [0.015, 0.03, 0.045, 0.06, 0.075, 0.09,
                         0.105, 0.12]


def fig7a(profile: Profile, executor=None) -> FigureResult:
    """Fig. 7a: uniform, 2-D torus.  Paper: UP/DOWN 0.015, ITB-SP 0.029,
    ITB-RR 0.032 flits/ns/switch."""
    return _latency_panel(
        "fig7a", "Uniform traffic, 2-D torus", "torus", "uniform",
        _RATES_TORUS_UNIFORM, profile,
        {"UP/DOWN": 0.015, "ITB-SP": 0.029, "ITB-RR": 0.032},
        executor=executor)


def fig7b(profile: Profile, executor=None) -> FigureResult:
    """Fig. 7b: uniform, 2-D torus with express channels.  Paper:
    UP/DOWN 0.07, ITB-SP 0.12, ITB-RR 0.11."""
    return _latency_panel(
        "fig7b", "Uniform traffic, 2-D torus + express channels",
        "torus-express", "uniform", _RATES_EXPRESS_UNIFORM, profile,
        {"UP/DOWN": 0.07, "ITB-SP": 0.12, "ITB-RR": 0.11},
        executor=executor)


def fig7c(profile: Profile, executor=None) -> FigureResult:
    """Fig. 7c: uniform, CPLANT.  Paper: UP/DOWN 0.05, ITB-SP just
    under double, ITB-RR 0.095."""
    return _latency_panel(
        "fig7c", "Uniform traffic, CPLANT", "cplant", "uniform",
        _RATES_CPLANT_UNIFORM, profile,
        {"UP/DOWN": 0.05, "ITB-SP": None, "ITB-RR": 0.095},
        executor=executor)


# -- Figures 8/9/11: link utilisation maps -----------------------------------

def _link_map_config(topology: str, traffic: str, routing: str,
                     policy: str, rate: float, profile: Profile,
                     traffic_kwargs: Optional[dict], seed: int) -> SimConfig:
    return SimConfig(
        topology=topology, routing=routing, policy=policy,
        traffic=traffic, traffic_kwargs=traffic_kwargs or {},
        injection_rate=rate,
        warmup_ps=profile.warmup_ps, measure_ps=profile.measure_ps,
        seed=seed)


def _link_map_panels(panels: Sequence[Tuple[str, str, SimConfig]],
                     executor=None) -> List[LinkMapResult]:
    """Run link-utilisation snapshots as one batch of points.

    The panels of one figure are independent runs, so a parallel
    executor runs them concurrently, and one with a store re-renders
    them for free.
    """
    summaries = resolve_executor(executor).run_configs(
        [cfg for _, _, cfg in panels], collect_links=True)
    out = []
    for (fig_id, title, cfg), summary in zip(panels, summaries):
        assert summary.link_utilization is not None
        out.append(LinkMapResult(fig_id, title, cfg.label(),
                                 cfg.injection_rate,
                                 summary.link_utilization, summary))
    return out


def fig8(profile: Profile, executor=None) -> List[LinkMapResult]:
    """Fig. 8: link utilisation, 2-D torus, uniform traffic.

    Paper: at 0.015 (UP/DOWN's saturation) links near the root hit
    ~50 % under UP/DOWN while 65 % of links stay below 10 %; ITB-RR
    keeps everything below 12 %.  At 0.03 ITB-RR ranges 14--29 %.
    """
    return _link_map_panels([
        ("fig8a", "2-D torus @ 0.015, UP/DOWN",
         _link_map_config("torus", "uniform", "updown", "sp", 0.015,
                          profile, None, 1)),
        ("fig8b", "2-D torus @ 0.015, ITB-RR",
         _link_map_config("torus", "uniform", "itb", "rr", 0.015,
                          profile, None, 1)),
        ("fig8c", "2-D torus @ 0.03, ITB-RR",
         _link_map_config("torus", "uniform", "itb", "rr", 0.03,
                          profile, None, 1)),
    ], executor)


def fig9(profile: Profile, executor=None) -> List[LinkMapResult]:
    """Fig. 9: link utilisation, express torus @ 0.066 (UP/DOWN's
    saturation point).  Paper: root links ~50 % under UP/DOWN; under
    ITB-RR all links < 30 % (express ~25 %, local ~10 %)."""
    return _link_map_panels([
        ("fig9a", "Express torus @ 0.066, UP/DOWN",
         _link_map_config("torus-express", "uniform", "updown", "sp",
                          0.066, profile, None, 1)),
        ("fig9b", "Express torus @ 0.066, ITB-RR",
         _link_map_config("torus-express", "uniform", "itb", "rr",
                          0.066, profile, None, 1)),
    ], executor)


def fig11(profile: Profile, hotspot: int = 260,
          fraction: float = 0.10, executor=None) -> List[LinkMapResult]:
    """Fig. 11: link utilisation, 2-D torus, 10 % hotspot traffic at
    UP/DOWN's saturation (paper: 0.0123).  Paper: UP/DOWN concentrates
    near the root, ITB-RR only near the hotspot."""
    kwargs = {"hotspot": hotspot, "fraction": fraction}
    return _link_map_panels([
        ("fig11a", "2-D torus, 10% hotspot @ 0.0123, UP/DOWN",
         _link_map_config("torus", "hotspot", "updown", "sp", 0.0123,
                          profile, kwargs, 1)),
        ("fig11b", "2-D torus, 10% hotspot @ 0.0123, ITB-RR",
         _link_map_config("torus", "hotspot", "itb", "rr", 0.0123,
                          profile, kwargs, 1)),
    ], executor)


# -- Figure 10: bit-reversal ---------------------------------------------------

_RATES_TORUS_BITREV = [0.004, 0.008, 0.012, 0.016, 0.020, 0.024,
                       0.028, 0.032, 0.037]
_RATES_EXPRESS_BITREV = [0.02, 0.04, 0.055, 0.07, 0.085, 0.10,
                         0.115, 0.13]


def fig10a(profile: Profile, executor=None) -> FigureResult:
    """Fig. 10a: bit-reversal, 2-D torus.  Paper: UP/DOWN 0.017,
    ITB-RR 0.032."""
    return _latency_panel(
        "fig10a", "Bit-reversal traffic, 2-D torus", "torus",
        "bit-reversal", _RATES_TORUS_BITREV, profile,
        {"UP/DOWN": 0.017, "ITB-SP": None, "ITB-RR": 0.032},
        executor=executor)


def fig10b(profile: Profile, executor=None) -> FigureResult:
    """Fig. 10b: bit-reversal, express torus.  Paper: UP/DOWN 0.07,
    ITB-RR 0.11."""
    return _latency_panel(
        "fig10b", "Bit-reversal traffic, 2-D torus + express channels",
        "torus-express", "bit-reversal", _RATES_EXPRESS_BITREV, profile,
        {"UP/DOWN": 0.07, "ITB-SP": None, "ITB-RR": 0.11},
        executor=executor)


# -- Figure 12: local traffic ---------------------------------------------------

_RATES_TORUS_LOCAL = [0.02, 0.035, 0.05, 0.065, 0.08, 0.095, 0.11]
_RATES_EXPRESS_LOCAL = [0.04, 0.07, 0.10, 0.13, 0.16, 0.20]
_RATES_CPLANT_LOCAL = [0.03, 0.05, 0.07, 0.09, 0.12, 0.15]


def fig12a(profile: Profile, radius: int = 3,
          executor=None) -> FigureResult:
    """Fig. 12a: local traffic (<= 3 switches), 2-D torus.  Paper:
    UP/DOWN ~0.1, ITB-SP/RR ~0.13 (a modest gain -- the panel's point
    is the *ratio*, so the grid is never thinned)."""
    return _latency_panel(
        "fig12a", f"Local traffic (radius {radius}), 2-D torus", "torus",
        "local", _RATES_TORUS_LOCAL, profile,
        {"UP/DOWN": 0.10, "ITB-SP": 0.13, "ITB-RR": 0.13},
        traffic_kwargs={"radius": radius}, thin=False, executor=executor)


def fig12b(profile: Profile, radius: int = 3,
          executor=None) -> FigureResult:
    """Fig. 12b: local traffic, express torus.  Paper: UP/DOWN performs
    as ITB-RR; ITB-SP slightly ahead."""
    return _latency_panel(
        "fig12b", f"Local traffic (radius {radius}), express torus",
        "torus-express", "local", _RATES_EXPRESS_LOCAL, profile,
        {"UP/DOWN": None, "ITB-SP": None, "ITB-RR": None},
        traffic_kwargs={"radius": radius}, thin=False, executor=executor)


def fig12c(profile: Profile, radius: int = 3,
          executor=None) -> FigureResult:
    """Fig. 12c: local traffic, CPLANT.  Paper: small ITB benefits."""
    return _latency_panel(
        "fig12c", f"Local traffic (radius {radius}), CPLANT", "cplant",
        "local", _RATES_CPLANT_LOCAL, profile,
        {"UP/DOWN": None, "ITB-SP": None, "ITB-RR": None},
        traffic_kwargs={"radius": radius}, thin=False, executor=executor)
