"""Every figure of the paper's evaluation section, declared once.

Latency-vs-traffic panels (Figures 7, 10, 12) compare UP/DOWN, ITB-SP
and ITB-RR on one topology/pattern; link-utilisation maps (Figures 8, 9,
11) snapshot per-link load at fixed injection rates.  A figure is one
declared row -- what is run, what the paper reports of it, what the
paper claims of it -- handed to the one function of its kind and
registered in :data:`~.registry.EXPERIMENTS`; the result types and
their ASCII renderers (what ``repro experiment`` prints and
EXPERIMENTS.md quotes) sit beside them, except the link map's, which
:mod:`repro.metrics.linkmap` holds so that ``repro run --links`` prints
one without loading this catalogue.

Rate grids are chosen to bracket the paper's reported saturation points
with headroom, so the curves show both the flat region and the vertical
bend for every routing algorithm.

A row's claims are what the paper says of the figure as checks on the
result: ``repro experiment`` prints the verdicts and
``tests/test_paper_claims.py`` asserts them.  Every numeric bound was
set from the spread over seeds 1-8 under the bench profile and holds
on all eight there and under the paper profile (CHANGES.md, PR 18,
lists the spreads); the paper's own figure is quoted in the statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..config import SimConfig
from ..metrics.linkmap import LinkMapResult, grid_shape, render_link_map
from ..registry import Kwarg
from ..routing.schemes import ITB_RR, PAPER_SCHEMES, UPDOWN
from .plot import render_curves
from .profiles import Profile
from .registry import EXPERIMENTS, Claim, Experiment
from ..runner import get_graph
from .sweep import SweepResult, resolve_executor, sweep_rates

#: (routing, policy, label), as :data:`~repro.routing.schemes.PAPER_SCHEMES`
SchemeRow = Tuple[str, str, str]


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


# -- rendering ----------------------------------------------------------------

def render_figure(fig: FigureResult) -> str:
    """Latency-vs-traffic panel as an aligned text table."""
    lines = [f"== {fig.fig_id}: {fig.title} =="]
    header = f"{'label':10s} {'offered':>9s} {'accepted':>9s} {'lat(ns)':>10s} {'sat':>4s}"
    for s in fig.series:
        lines.append(f"-- {s.label}")
        lines.append(header)
        for r in s.runs:
            lat = (f"{r.avg_latency_ns:10.0f}"
                   if r.avg_latency_ns is not None else "       n/a")
            lines.append(
                f"{s.label:10s} {r.offered_flits_ns_switch:9.4f} "
                f"{r.accepted_flits_ns_switch:9.4f} {lat} "
                f"{'yes' if r.saturated else 'no':>4s}")
    lines.append("-- throughput (max accepted traffic, flits/ns/switch)")
    for s in fig.series:
        paper = fig.paper_throughput.get(s.label)
        paper_s = f" (paper: {paper:.3f})" if paper is not None else ""
        lines.append(f"   {s.label:10s} {s.throughput():.4f}{paper_s}")
    return "\n".join(lines)


def _plot_panel(fig: FigureResult) -> str:
    return render_curves(fig.series, title=fig.title)


def render_link_maps(panels: Sequence[LinkMapResult]) -> str:
    """Every panel of a link-utilisation figure, each with the heat
    map of its own topology's grid."""
    return "\n\n".join(render_link_map(p, grid_shape(p.summary.config))
                       for p in panels) + "\n"


# -- the two kinds of figure --------------------------------------------------

@dataclass(frozen=True)
class Panel:
    """A latency-vs-traffic figure as declared."""

    fig_id: str
    #: the ``repro list`` line and, unless ``title`` says more (a
    #: Figure 12 row's has a ``{radius}`` to fill), the report's heading
    description: str
    topology: str
    traffic: str
    #: offered loads swept, flits/ns/switch
    rates: Tuple[float, ...]
    #: the saturation throughput the paper reports per scheme label
    #: (None, or no entry: it gives no number)
    paper_throughput: Mapping[str, Optional[float]]
    claims: Callable[[FigureResult], List[Claim]]
    title: str = ""
    #: False keeps the full grid even under the bench profile -- where
    #: the panel's conclusion is a *ratio* of knees, which grid
    #: clipping would distort
    thin: bool = True
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)
    traffic_kwargs: Mapping[str, Any] = field(default_factory=dict)
    schemes: Sequence[SchemeRow] = PAPER_SCHEMES


def _latency_panel(panel: Panel, profile: Profile,
                   executor=None) -> FigureResult:
    """Sweep every scheme of ``panel`` over its rate grid."""
    grid = profile.thin(list(panel.rates)) if panel.thin else panel.rates
    series = []
    for routing, policy, _label in panel.schemes:
        base = SimConfig(
            topology=panel.topology, topology_kwargs=panel.topology_kwargs,
            routing=routing, policy=policy,
            traffic=panel.traffic, traffic_kwargs=panel.traffic_kwargs,
            warmup_ps=profile.warmup_ps, measure_ps=profile.measure_ps)
        series.append(sweep_rates(base, grid, executor=executor))
    return FigureResult(panel.fig_id, panel.title or panel.description,
                        series, dict(panel.paper_throughput))


def _local_panel(panel: Panel, profile: Profile, executor=None,
                 radius: int = 3) -> FigureResult:
    """A Figure 12 panel: destinations at most ``radius`` switches
    from the source, which the row's ``title`` has a place for."""
    return _latency_panel(
        replace(panel, title=panel.title.format(radius=radius),
                traffic_kwargs={"radius": radius}), profile, executor)


def _register_panel(panel: Panel, fn: Callable[..., FigureResult]
                    = _latency_panel, kwargs: Tuple[Kwarg, ...] = ()) -> None:
    EXPERIMENTS.register(Experiment(
        panel.fig_id, "latency-panel", panel.description,
        partial(fn, panel), render_figure, _plot_panel, panel.claims,
        kwargs))


@dataclass(frozen=True)
class LinkMaps:
    """A link-utilisation figure as declared: one snapshot per
    ``(scheme, rate)``, lettered a, b, c in order."""

    fig_id: str
    description: str
    #: what every panel's heading starts with
    where: str
    topology: str
    traffic: str
    panels: Tuple[Tuple[SchemeRow, float], ...]
    claims: Callable[[Sequence[LinkMapResult]], List[Claim]]
    traffic_kwargs: Mapping[str, Any] = field(default_factory=dict)


def _link_map_panels(fig: LinkMaps, profile: Profile,
                     executor=None) -> List[LinkMapResult]:
    """Run ``fig``'s snapshots as one batch of points.

    The panels of one figure are independent runs, so a parallel
    executor runs them concurrently, and one with a store re-renders
    them for free.
    """
    configs = [SimConfig(
        topology=fig.topology, routing=routing, policy=policy,
        traffic=fig.traffic, traffic_kwargs=fig.traffic_kwargs,
        injection_rate=rate,
        warmup_ps=profile.warmup_ps, measure_ps=profile.measure_ps)
        for (routing, policy, _label), rate in fig.panels]
    summaries = resolve_executor(executor).run_configs(
        configs, collect_links=True)
    out = []
    for letter, ((_, _, label), rate), summary in zip(
            "abcdef", fig.panels, summaries):
        assert summary.link_utilization is not None
        out.append(LinkMapResult(
            fig.fig_id + letter, f"{fig.where} @ {rate}, {label}", label,
            rate, summary.link_utilization, summary))
    return out


def _hotspot_link_maps(fig: LinkMaps, profile: Profile, executor=None,
                       hotspot: int = 260,
                       fraction: float = 0.10) -> List[LinkMapResult]:
    """Figure 11's snapshots: ``fraction`` of the traffic goes to host
    ``hotspot``."""
    return _link_map_panels(
        replace(fig, traffic_kwargs={"hotspot": hotspot,
                                     "fraction": fraction}),
        profile, executor)


def _register_link_maps(fig: LinkMaps,
                        fn: Callable[..., List[LinkMapResult]]
                        = _link_map_panels,
                        kwargs: Tuple[Kwarg, ...] = ()) -> None:
    EXPERIMENTS.register(Experiment(
        fig.fig_id, "link-map", fig.description, partial(fn, fig),
        render_link_maps, claims=fig.claims, kwargs=kwargs))


# -- how a claim is stated ----------------------------------------------------

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


# -- Figure 7: uniform traffic ------------------------------------------------
# A knee is read off a rate grid, so where a grid point sits on a
# scheme's knee its ratio reads a step lower on some seeds: 0.033 for
# ITB-RR in fig7a (saturates there on 6 of 8 seeds under the bench
# grid), 0.085 in fig10b (reads UP/DOWN's knee on 3 of 8, x1.5 on the
# rest).

_register_panel(Panel(
    "fig7a", "Uniform traffic, 2-D torus", "torus", "uniform",
    (0.004, 0.008, 0.011, 0.014, 0.017, 0.021, 0.025, 0.029, 0.033, 0.038),
    {"UP/DOWN": 0.015, "ITB-SP": 0.029, "ITB-RR": 0.032},
    _knees(SP=(1.8, None, "x1.9"), RR=(1.35, None, "x2.1"))))


def _fig7b_claims(fig: FigureResult) -> List[Claim]:
    return _knees(SP=(1.45, None, "x1.7"), RR=(1.35, None, "x1.57"))(fig) + [
        # express channels lift everyone well above the plain torus
        bound_claim("UP/DOWN knee (paper 0.07; plain torus 0.017)",
                    fig.measured_throughput()["UP/DOWN"], lo=0.05)]


_register_panel(Panel(
    "fig7b", "Uniform traffic, express torus", "torus-express", "uniform",
    (0.02, 0.04, 0.055, 0.07, 0.085, 0.10, 0.115, 0.13, 0.15),
    {"UP/DOWN": 0.07, "ITB-SP": 0.12, "ITB-RR": 0.11}, _fig7b_claims,
    title="Uniform traffic, 2-D torus + express channels"))

# the paper gives no ITB-SP number: "almost doubles" UP/DOWN
_register_panel(Panel(
    "fig7c", "Uniform traffic, CPLANT", "cplant", "uniform",
    (0.015, 0.03, 0.045, 0.06, 0.075, 0.09, 0.105, 0.12),
    {"UP/DOWN": 0.05, "ITB-RR": 0.095},
    _knees(SP=(1.8, None, '"almost doubles"'), RR=(1.4, None, "x1.9"))))


# -- Figures 8 and 9: link utilisation under uniform traffic ------------------

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


# Fig. 8, at UP/DOWN's saturation point and at twice it.  Paper: at
# 0.015 links near the root hit ~50 % under UP/DOWN while 65 % of links
# stay below 10 %, and ITB-RR keeps everything below 12 %; at 0.03
# ITB-RR ranges 14--29 %.
_register_link_maps(LinkMaps(
    "fig8", "Link utilisation, torus, uniform", "2-D torus", "torus",
    "uniform", ((UPDOWN, 0.015), (ITB_RR, 0.015), (ITB_RR, 0.03)),
    _fig8_claims))


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


# Fig. 9, at UP/DOWN's saturation point.  Paper: root links ~50 % under
# UP/DOWN; under ITB-RR all links < 30 % (express ~25 %, local ~10 %).
_register_link_maps(LinkMaps(
    "fig9", "Link utilisation, express torus, uniform", "Express torus",
    "torus-express", "uniform", ((UPDOWN, 0.066), (ITB_RR, 0.066)),
    _fig9_claims))


# -- Figure 10: bit-reversal --------------------------------------------------
# the paper reports no ITB-SP number for either panel

_register_panel(Panel(
    "fig10a", "Bit-reversal, 2-D torus", "torus", "bit-reversal",
    (0.004, 0.008, 0.012, 0.016, 0.020, 0.024, 0.028, 0.032, 0.037),
    {"UP/DOWN": 0.017, "ITB-RR": 0.032},
    _knees(SP=(1.3, None, "~x1.8"), RR=(1.25, None, "x1.9")),
    title="Bit-reversal traffic, 2-D torus"))

_register_panel(Panel(
    "fig10b", "Bit-reversal, express torus", "torus-express",
    "bit-reversal", (0.02, 0.04, 0.055, 0.07, 0.085, 0.10, 0.115, 0.13),
    {"UP/DOWN": 0.07, "ITB-RR": 0.11},
    _knees(SP=(1.15, None, "~x1.6"), RR=(0.95, None, "x1.57")),
    title="Bit-reversal traffic, 2-D torus + express channels"))


# -- Figure 11: link utilisation under a hotspot ------------------------------

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


# Fig. 11, at UP/DOWN's saturation under the hotspot (paper: 0.0123).
# Paper: UP/DOWN concentrates near the root, ITB-RR only near the
# hotspot.
_register_link_maps(
    LinkMaps("fig11", "Link utilisation, torus, 10% hotspot",
             "2-D torus, 10% hotspot", "torus", "hotspot",
             ((UPDOWN, 0.0123), (ITB_RR, 0.0123)), _fig11_claims),
    _hotspot_link_maps,
    (Kwarg("hotspot", int, 260, "host every hotspot message goes to"),
     Kwarg("fraction", float, 0.10, "share of messages sent to it")))


# -- Figure 12: local traffic -------------------------------------------------
# The paper sees a modest gain on the torus (UP/DOWN ~0.1, ITB ~0.13),
# parity on the express torus ("does not decrease UP/DOWN performance",
# ITB-SP slightly ahead) and small benefits on CPLANT, the last two
# without numbers; ours are larger on the last two and visibly below
# the x2 of uniform traffic on the first.  Each panel's point is the
# *ratio*, so no grid is thinned.

_RADIUS = (Kwarg("radius", int, 3, "destinations at most this many "
                                   "switches from the source"),)

_register_panel(Panel(
    "fig12a", "Local traffic, 2-D torus", "torus", "local",
    (0.02, 0.035, 0.05, 0.065, 0.08, 0.095, 0.11),
    {"UP/DOWN": 0.10, "ITB-SP": 0.13, "ITB-RR": 0.13},
    _knees(SP=(1.2, 1.8, "x1.3"), RR=(1.2, 1.8, "x1.3")),
    title="Local traffic (radius {radius}), 2-D torus", thin=False),
    _local_panel, _RADIUS)

_register_panel(Panel(
    "fig12b", "Local traffic, express torus", "torus-express", "local",
    (0.04, 0.07, 0.10, 0.13, 0.16, 0.20), {},
    _knees(SP=(1.2, None, "slightly ahead"), RR=(0.95, None, "parity")),
    title="Local traffic (radius {radius}), express torus", thin=False),
    _local_panel, _RADIUS)

_register_panel(Panel(
    "fig12c", "Local traffic, CPLANT", "cplant", "local",
    (0.03, 0.05, 0.07, 0.09, 0.12, 0.15), {},
    _knees(SP=(1.25, None, '"small benefits"'),
           RR=(1.25, None, '"small benefits"')),
    title="Local traffic (radius {radius}), CPLANT", thin=False),
    _local_panel, _RADIUS)


# -- Extension panels (no paper counterpart) ----------------------------------

# In-transit buffers on an *irregular* network, where the mechanism was
# first proposed (the paper's references [5, 6], which report large
# gains): a 32-switch random fabric, on which up*/down* forbids far
# more minimal paths than on the torus.
_register_panel(Panel(
    "irregular", "Uniform traffic, 32-switch irregular network",
    "irregular", "uniform", (0.004, 0.008, 0.012, 0.017, 0.023, 0.03, 0.04),
    {}, _knees(RR=(1.25, None, "")),
    topology_kwargs={"num_switches": 32, "hosts_per_switch": 8,
                     "max_switch_links": 4, "seed": 11},
    schemes=(UPDOWN, ITB_RR)))


def _mesh_dor_claims(fig: FigureResult) -> List[Claim]:
    return [
        # rootless DOR beats both spanning-tree-based schemes
        knee_claim(fig, "DOR", lo=1.4),
        knee_claim(fig, "DOR", lo=1.5, over="ITB-RR"),
        # no x2 without wraparound path diversity: ITB-RR's knee is
        # UP/DOWN's give or take a grid step (below it on 5 of 8 seeds)
        knee_claim(fig, "ITB-RR", lo=0.7, hi=1.4)]


# Dimension-order routing as a third baseline on an 8x8 mesh (the torus
# without wraparound), where XY routing is minimal and deadlock-free
# without virtual channels.  It isolates what drives the torus result:
# the mesh has little minimal-path diversity for ITB routing to
# exploit, and rootless DOR has no spanning-tree hot corner.  The
# conclusion is a three-way knee comparison, so the grid is never
# thinned.
_register_panel(Panel(
    "mesh-dor", "Uniform traffic, 8x8 mesh: UP/DOWN vs ITB-RR vs "
    "dimension-order", "mesh", "uniform",
    (0.006, 0.010, 0.014, 0.018, 0.022, 0.027, 0.032), {},
    _mesh_dor_claims, title="Uniform traffic, 8x8 mesh", thin=False,
    topology_kwargs={"rows": 8, "cols": 8, "hosts_per_switch": 8},
    schemes=(UPDOWN, ITB_RR, ("dor", "sp", "DOR"))))
