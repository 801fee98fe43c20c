"""Regeneration of every figure in the paper's evaluation section.

Latency-vs-traffic panels (Figures 7, 10, 12) compare UP/DOWN, ITB-SP
and ITB-RR on one topology/pattern; link-utilisation maps (Figures 8, 9,
11) snapshot per-link load at fixed injection rates.  Each function
returns a structured result that :mod:`repro.experiments.report` renders
as ASCII and that EXPERIMENTS.md quotes.

Rate grids are chosen to bracket the paper's reported saturation points
with headroom, so the curves show both the flat region and the vertical
bend for every routing algorithm.

:data:`CLAIMS` holds, per figure, what the paper says of it as checks
on the result: ``repro experiment`` prints the verdicts and
``tests/test_paper_claims.py`` asserts them.  Every numeric bound was
set from the spread over seeds 1-8 under the bench profile and holds
on all eight there and under the paper profile (CHANGES.md, PR 18,
lists the spreads); the paper's own figure is quoted in the statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SimConfig
from ..metrics.linkstats import LinkUtilization
from ..metrics.summary import RunSummary
from ..routing.schemes import ITB_RR, PAPER_SCHEMES, UPDOWN
from .profiles import Profile
from .runner import get_graph
from .sweep import SweepResult, resolve_executor, sweep_rates

#: one claim checked against a result: (statement quoting the measured
#: values, whether it holds)
Claim = Tuple[str, bool]


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
                   executor=None,
                   topology_kwargs: Optional[dict] = None,
                   schemes: Sequence[Tuple[str, str, str]] = PAPER_SCHEMES
                   ) -> FigureResult:
    """Sweep ``schemes`` -- ``(routing, policy, label)``, the paper's
    three by default -- over a rate grid.

    ``thin=False`` keeps the full grid even under the bench profile --
    used where the panel's conclusion is a *ratio* of knees and grid
    clipping would distort it (Figure 12's modest local-traffic gains).
    ``executor`` is handed to :func:`~.sweep.sweep_rates`.
    """
    series = []
    grid = profile.thin(list(rates)) if thin else list(rates)
    for routing, policy, _label in schemes:
        base = SimConfig(
            topology=topology, topology_kwargs=topology_kwargs or {},
            routing=routing, policy=policy,
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


# -- Extension panels (no paper counterpart) ----------------------------------

_RATES_IRREGULAR = [0.004, 0.008, 0.012, 0.017, 0.023, 0.03, 0.04]
_RATES_MESH = [0.006, 0.010, 0.014, 0.018, 0.022, 0.027, 0.032]


def irregular(profile: Profile, executor=None) -> FigureResult:
    """In-transit buffers on an *irregular* network, where the
    mechanism was first proposed (the paper's references [5, 6]): a
    32-switch random fabric, on which up*/down* forbids far more
    minimal paths than on the torus.  Those papers report large gains."""
    return _latency_panel(
        "irregular", "Uniform traffic, 32-switch irregular network",
        "irregular", "uniform", _RATES_IRREGULAR, profile, {},
        executor=executor,
        topology_kwargs={"num_switches": 32, "hosts_per_switch": 8,
                         "max_switch_links": 4, "seed": 11},
        schemes=(UPDOWN, ITB_RR))


def mesh_dor(profile: Profile, executor=None) -> FigureResult:
    """Dimension-order routing as a third baseline on an 8x8 mesh (the
    torus without wraparound), where XY routing is minimal and
    deadlock-free without virtual channels.  It isolates what drives
    the torus result: the mesh has little minimal-path diversity for
    ITB routing to exploit, and rootless DOR has no spanning-tree hot
    corner.  The conclusion is a three-way knee comparison, so the
    grid is never thinned."""
    return _latency_panel(
        "mesh-dor", "Uniform traffic, 8x8 mesh", "mesh", "uniform",
        _RATES_MESH, profile, {}, thin=False, executor=executor,
        topology_kwargs={"rows": 8, "cols": 8, "hosts_per_switch": 8},
        schemes=(UPDOWN, ITB_RR, ("dor", "sp", "DOR")))


# -- the paper's claims about each figure -------------------------------------

def _check(what: str, measured: str, value: float,
           lo: Optional[float], hi: Optional[float]) -> Claim:
    need = " and ".join(f"{op} {bound:g}"
                        for op, bound in ((">=", lo), ("<=", hi))
                        if bound is not None)
    return (f"{what} {need}: {measured}",
            (lo is None or value >= lo) and (hi is None or value <= hi))


def _show(value: float) -> str:
    """A throughput or utilisation (4 decimals), or a latency in ns."""
    return f"{value:.0f}" if value >= 100 else f"{value:.4f}"


def bound_claim(name: str, value: float, lo: Optional[float] = None,
                hi: Optional[float] = None) -> Claim:
    """``lo <= value <= hi``, stated with the measured value."""
    return _check(name, _show(value), value, lo, hi)


def ratio_claim(a_name: str, a: float, b_name: str, b: float,
                lo: Optional[float] = None,
                hi: Optional[float] = None) -> Claim:
    """``lo <= a / b <= hi``, stated with both measured values."""
    return _check(f"{a_name} / {b_name}",
                  f"{_show(a)} / {_show(b)} = x{a / b:.2f}", a / b, lo, hi)


def knee_claim(fig: FigureResult, label: str, lo: Optional[float] = None,
               hi: Optional[float] = None, over: str = "UP/DOWN",
               paper: str = "") -> Claim:
    """Bounds on ``label``'s knee relative to ``over``'s; ``paper`` is
    the paper's own factor, quoted in the statement."""
    thr = fig.measured_throughput()
    return ratio_claim(f"{label} knee", thr[label],
                       f"{over} knee" + (f" (paper {paper})" if paper else ""),
                       thr[over], lo, hi)


def _knees(**bounds: Tuple[Optional[float], Optional[float], str]
           ) -> Callable[[FigureResult], List[Claim]]:
    """A panel's claims when all are ITB knees over UP/DOWN's:
    ``SP=(lo, hi, paper)``, ``RR=...``."""
    return lambda fig: [knee_claim(fig, f"ITB-{policy}", lo, hi, paper=paper)
                        for policy, (lo, hi, paper) in bounds.items()]


def _into(panel: LinkMapResult, switch: int) -> float:
    """Mean utilisation of the directed channels entering ``switch``."""
    u = panel.utilization
    vals = [x for (_, dst, _), x in zip(u.channel_ends, u.utilization)
            if dst == switch]
    return sum(vals) / len(vals)


def _fig7b_claims(fig: FigureResult) -> List[Claim]:
    return _knees(SP=(1.45, None, "x1.7"), RR=(1.35, None, "x1.57"))(fig) + [
        # express channels lift everyone well above the plain torus
        bound_claim("UP/DOWN knee (paper 0.07; plain torus 0.017)",
                    fig.measured_throughput()["UP/DOWN"], lo=0.05)]


def _fig8_claims(panels: Sequence[LinkMapResult]) -> List[Claim]:
    updown = panels[0].utilization
    ud, rr15, rr30 = (p.utilization.summary() for p in panels)
    hottest = [(src, dst) for _, src, dst, _ in updown.hottest(5)]
    return [
        # UP/DOWN at its saturation point: a hot spine at the root and
        # a large cold majority
        bound_claim("UP/DOWN @ 0.015: hottest link (paper ~0.5)",
                    ud["max"], lo=0.35),
        bound_claim("UP/DOWN @ 0.015: share of links below 10 % "
                    "(paper 0.65)", ud["frac_below_10pct"], lo=0.40),
        ("UP/DOWN @ 0.015: the 5 hottest channels all touch the root "
         "switch: " + ", ".join(f"{s}->{d}" for s, d in hottest),
         all(0 in ends for ends in hottest)),
        # ITB-RR at the same rate: cool and flat (warmer than the paper's)
        bound_claim("ITB-RR @ 0.015: hottest link (paper < 0.12)",
                    rr15["max"], hi=0.25),
        ratio_claim("ITB-RR @ 0.015 hottest link", rr15["max"],
                    "UP/DOWN's", ud["max"], hi=0.55),
        # at twice the rate: twice the load, still flatter than UP/DOWN
        ratio_claim("ITB-RR @ 0.03 mean link", rr30["mean"],
                    "its @ 0.015", rr15["mean"], lo=1.6),
        ratio_claim("ITB-RR @ 0.03 hottest link (paper 0.29)", rr30["max"],
                    "UP/DOWN's @ 0.015", ud["max"], hi=0.95)]


def _fig9_claims(panels: Sequence[LinkMapResult]) -> List[Claim]:
    updown, itb = (p.utilization for p in panels)
    ud_max, itb_max = updown.summary()["max"], itb.summary()["max"]
    # the express torus lists its plain-torus cables first
    torus_links = get_graph("torus", {}).num_links
    express: List[float] = []
    local: List[float] = []
    for (_, _, link_id), util in zip(itb.channel_ends, itb.utilization):
        (express if link_id >= torus_links else local).append(util)
    return [
        bound_claim("UP/DOWN @ 0.066: hottest link (paper ~0.5)",
                    ud_max, lo=0.35),
        bound_claim("ITB-RR @ 0.066: hottest link (paper < 0.3)",
                    itb_max, hi=0.35),
        ratio_claim("ITB-RR hottest link", itb_max, "UP/DOWN's", ud_max,
                    hi=0.85),
        # our balanced tables put more load on the local links than
        # the paper's; the ordering holds
        ratio_claim("ITB-RR: mean express channel",
                    sum(express) / len(express),
                    "mean local channel (paper 0.25 / 0.10)",
                    sum(local) / len(local), lo=1.35)]


def _fig11_claims(panels: Sequence[LinkMapResult]) -> List[Claim]:
    updown, itb = panels
    cfg = itb.summary.config
    hot = get_graph(cfg.topology, cfg.topology_kwargs).host_switch(
        cfg.traffic_kwargs["hotspot"])
    _, src, dst, _ = itb.utilization.hottest(1)[0]
    return [
        # UP/DOWN: the root outglows the hotspot
        ratio_claim("UP/DOWN: channels into the root", _into(updown, 0),
                    f"into hotspot switch {hot}", _into(updown, hot),
                    lo=1.4),
        # ITB-RR: the hotspot is the hot zone, not the root ...
        ratio_claim(f"ITB-RR: channels into hotspot switch {hot}",
                    _into(itb, hot), "into the root", _into(itb, 0),
                    lo=1.2),
        (f"ITB-RR: the hottest channel enters hotspot switch {hot}: "
         f"{src}->{dst}", dst == hot),
        # ... which it relieves
        ratio_claim("ITB-RR: channels into the root", _into(itb, 0),
                    "UP/DOWN's", _into(updown, 0), hi=0.5)]


def _mesh_dor_claims(fig: FigureResult) -> List[Claim]:
    return [
        # rootless DOR beats both spanning-tree-based schemes
        knee_claim(fig, "DOR", lo=1.4),
        knee_claim(fig, "DOR", lo=1.5, over="ITB-RR"),
        # no x2 without wraparound path diversity: ITB-RR's knee is
        # UP/DOWN's give or take a grid step (below it on 5 of 8 seeds)
        knee_claim(fig, "ITB-RR", lo=0.7, hi=1.4)]


#: exp_id -> claims.  A knee is read off a rate grid, so where a grid
#: point sits on a scheme's knee its ratio reads a step lower on some
#: seeds: 0.033 for ITB-RR in fig7a (saturates there on 6 of 8 seeds
#: under the bench grid), 0.085 in fig10b (reads UP/DOWN's knee on 3 of
#: 8, x1.5 on the rest).  Fig 12: the paper sees a modest gain on the
#: torus, parity on the express torus ("does not decrease UP/DOWN
#: performance") and small benefits on CPLANT; ours are larger on the
#: last two and visibly below the x2 of uniform traffic on the first.
CLAIMS: Dict[str, Callable[..., List[Claim]]] = {
    "fig7a": _knees(SP=(1.8, None, "x1.9"), RR=(1.35, None, "x2.1")),
    "fig7b": _fig7b_claims,
    "fig7c": _knees(SP=(1.8, None, '"almost doubles"'),
                    RR=(1.4, None, "x1.9")),
    "fig8": _fig8_claims,
    "fig9": _fig9_claims,
    "fig10a": _knees(SP=(1.3, None, "~x1.8"), RR=(1.25, None, "x1.9")),
    "fig10b": _knees(SP=(1.15, None, "~x1.6"), RR=(0.95, None, "x1.57")),
    "fig11": _fig11_claims,
    "fig12a": _knees(SP=(1.2, 1.8, "x1.3"), RR=(1.2, 1.8, "x1.3")),
    "fig12b": _knees(SP=(1.2, None, "slightly ahead"),
                     RR=(0.95, None, "parity")),
    "fig12c": _knees(SP=(1.25, None, '"small benefits"'),
                     RR=(1.25, None, '"small benefits"')),
    # references [5, 6] report large gains on irregular networks
    "irregular": _knees(RR=(1.25, None, "")),
    "mesh-dor": _mesh_dor_claims,
}
