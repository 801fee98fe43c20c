"""Single-rate ablation and extension studies (no paper counterpart).

The paper fixes several knobs it never studies -- the 275 + 200 ns
in-transit overhead, the 10-alternative table cap, the root switch,
which minimal path SP pins, the 512-byte message -- and names adaptive
source routing as future work.  Each study varies one of them at a
load chosen to separate the variants, so all are one kind: a labelled
list of plain-data points (a :class:`~repro.config.SimConfig` plus
JSON-safe runner kwargs) run as one ``Executor.run_points`` batch and
printed by one renderer.  A variant must therefore be expressible in
``SimConfig`` or a runner kwarg; one that needs a live ``tables=``
object (SP's unbalanced first alternatives) is a direct
``run_simulation`` assertion in ``tests/test_itb.py`` instead.

A study is declared once: the function listing its rows, then its
conclusions as checks on the table (set the way :mod:`.figures`
describes), then its registration in :data:`~.registry.EXPERIMENTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..config import PAPER_PARAMS, SimConfig
from ..metrics.summary import RunSummary
from ..orchestrator import Point
from ..routing.schemes import ITB_RR, UPDOWN
from ..topology.mutated import mutated_kwargs
from .figures import ratio_claim
from .profiles import Profile
from .registry import EXPERIMENTS, Claim, Experiment
from .runner import get_graph
from .sweep import resolve_executor

#: one row of a study: (label, run description, runner kwargs)
Row = Tuple[str, SimConfig, Mapping[str, Any]]


@dataclass(frozen=True)
class PointTable:
    """One study: its points' summaries by row label, in row order."""

    exp_id: str
    title: str
    runs: Dict[str, RunSummary]


def _point_table(exp_id: str, title: str,
                 rows_of: Callable[[Profile], List[Row]],
                 profile: Profile, executor=None) -> PointTable:
    rows = rows_of(profile)
    summaries = resolve_executor(executor).run_points(
        [Point(label, cfg, kwargs) for label, cfg, kwargs in rows])
    return PointTable(exp_id, title,
                      {label: s for (label, _, _), s in zip(rows, summaries)})


def render_point_table(tab: PointTable) -> str:
    """A study as an aligned text table, one row per point."""
    width = max(map(len, tab.runs))
    lines = [f"== {tab.exp_id}: {tab.title} ==",
             f"{'point':{width}s} {'offered':>9s} {'accepted':>9s} "
             f"{'lat(ns)':>10s} {'itbs/msg':>9s} {'sat':>4s}"]
    for label, r in tab.runs.items():
        lat = (f"{r.avg_latency_ns:10.0f}"
               if r.avg_latency_ns is not None else "       n/a")
        lines.append(
            f"{label:{width}s} {r.offered_flits_ns_switch:9.4f} "
            f"{r.accepted_flits_ns_switch:9.4f} {lat} "
            f"{r.avg_itbs_per_message or 0:9.2f} "
            f"{'yes' if r.saturated else 'no':>4s}")
    return "\n".join(lines)


def _register_study(exp_id: str, description: str, title: str,
                    rows_of: Callable[[Profile], List[Row]],
                    claims: Callable[[PointTable], List[Claim]]) -> None:
    EXPERIMENTS.register(Experiment(
        exp_id, "point-table", description,
        partial(_point_table, exp_id, title, rows_of), render_point_table,
        claims=claims))


def _config(profile: Profile, routing: str, policy: str, rate: float,
            **kw: Any) -> SimConfig:
    """Profile windows; the paper's 8x8 torus under uniform traffic
    unless ``kw`` says otherwise."""
    return SimConfig(**{"topology": "torus", "traffic": "uniform", **kw},
                     routing=routing, policy=policy, injection_rate=rate,
                     warmup_ps=profile.warmup_ps,
                     measure_ps=profile.measure_ps)


# -- how a study's conclusions are stated -------------------------------------

def _sustains(tab: PointTable, label: str) -> Claim:
    r = tab.runs[label]
    return (f"{label} sustains its load (backlog bounded): accepts "
            f"{r.accepted_flits_ns_switch:.4f} of "
            f"{r.offered_flits_ns_switch:.4f}", not r.saturated)


def _accepted(tab: PointTable, a: str, b: str, **bounds: float) -> Claim:
    return ratio_claim(f"{a} accepted", tab.runs[a].accepted_flits_ns_switch,
                       f"{b}'s", tab.runs[b].accepted_flits_ns_switch,
                       **bounds)


def _latency(tab: PointTable, a: str, b: str, **bounds: float) -> Claim:
    return ratio_claim(f"{a} latency", tab.runs[a].avg_latency_ns,
                       f"{b}'s", tab.runs[b].avg_latency_ns, **bounds)


def _over_roots(tab: PointTable, rows: str, what: str,
                **bounds: float) -> Claim:
    """Bounds on the highest / lowest accepted traffic or latency
    among the rows whose label starts with ``rows``."""
    field = {"accepted": "accepted_flits_ns_switch",
             "latency": "avg_latency_ns"}[what]
    vals = [getattr(r, field) for label, r in tab.runs.items()
            if label.startswith(rows)]
    return ratio_claim(f"{rows}: highest {what} over the roots",
                       max(vals), "the lowest", min(vals), **bounds)


# -- the studies --------------------------------------------------------------

def _itb_overhead(profile: Profile) -> List[Row]:
    """The in-transit overhead, which the paper calls "the critical
    part of this mechanism": its 275 ns (detect) + 200 ns (DMA set-up)
    scaled together, at a load up*/down* (knee ~0.017) cannot carry."""
    base = _config(profile, "itb", "rr", 0.025)
    return [(f"x{scale:g}", base.with_overrides(
        params=PAPER_PARAMS.with_overrides(
            itb_detect_ps=round(PAPER_PARAMS.itb_detect_ps * scale),
            itb_dma_setup_ps=round(PAPER_PARAMS.itb_dma_setup_ps
                                   * scale))), {})
            for scale in (0.5, 1.0, 4.0, 16.0)]


def _itb_overhead_claims(tab: PointTable) -> List[Claim]:
    return [
        # the network carries the load UP/DOWN cannot at the paper's
        # overheads, and at 4x of them
        _sustains(tab, "x1"), _sustains(tab, "x4"),
        # halving them buys little (they are not the bottleneck) ...
        _latency(tab, "x0.5", "x1", lo=0.8),
        # ... though latency does respond
        _latency(tab, "x16", "x1", lo=1.15)]


_register_study(
    "itb-overhead", "In-transit overhead scaled x0.5-x16, torus",
    "ITB-RR @ 0.025, 2-D torus: in-transit overhead scaled from the "
    "paper's 275 + 200 ns", _itb_overhead, _itb_overhead_claims)


def _route_cap(profile: Profile) -> List[Row]:
    """Route alternatives kept per pair: the paper caps the table at 10
    "to avoid ... a long look-up delay" and never studies the knob.
    Between the ITB-SP and ITB-RR knees; a cap of 1 turns RR into SP
    over the first enumerated path."""
    base = _config(profile, "itb", "rr", 0.028)
    return [(f"cap={cap}", base.with_overrides(
        params=PAPER_PARAMS.with_overrides(max_routes_per_pair=cap)), {})
            for cap in (1, 2, 4, 10)]


def _route_cap_claims(tab: PointTable) -> List[Claim]:
    # a single alternative leaves nothing to balance or to rotate over
    # and saturates near 0.017
    return [_sustains(tab, "cap=10"),
            _accepted(tab, "cap=10", "cap=1", lo=1.25)]


_register_study(
    "route-cap", "Route alternatives kept per pair (1-10), torus",
    "ITB-RR @ 0.028, 2-D torus: route alternatives kept per pair",
    _route_cap, _route_cap_claims)


def _root_placement(profile: Profile) -> List[Row]:
    """Spanning-tree root placement.  On the vertex-transitive torus
    every root is equivalent up to symmetry (a self-check of the
    simulator); on CPLANT the root's group shapes UP/DOWN's congestion
    (roots: root group, a middle group, the spare switch), while ITB
    routing avoids the root."""
    rows: List[Row] = [
        (f"torus UP/DOWN root={root}",
         _config(profile, "updown", "sp", 0.014), {"root": root})
        for root in (0, 27, 63)]
    rows += [
        (f"cplant {label} root={root}",
         _config(profile, routing, policy, 0.055, topology="cplant"),
         {"root": root})
        for routing, policy, label in (UPDOWN, ITB_RR)
        for root in (0, 25, 48)]
    return rows


def _root_placement_claims(tab: PointTable) -> List[Claim]:
    return [
        # symmetry on the torus; on CPLANT the root's group matters to
        # UP/DOWN, not to ITB-RR
        _over_roots(tab, "torus UP/DOWN", "accepted", hi=1.05),
        _over_roots(tab, "cplant UP/DOWN", "latency", lo=1.25),
        _over_roots(tab, "cplant ITB-RR", "latency", hi=1.1)]


_register_study(
    "root-placement", "Spanning-tree root placement, torus and CPLANT",
    "Spanning-tree root placement: 2-D torus @ 0.014, CPLANT @ 0.055",
    _root_placement, _root_placement_claims)


def _msglen(profile: Profile) -> List[Row]:
    """32, 512 and 1024-byte messages (Section 4.2: "qualitatively
    similar", only 512 shown) at one flit load past the UP/DOWN knee;
    per-hop and in-transit overheads weigh most on the 32-byte case."""
    return [(f"{label} {nbytes} B",
             _config(profile, routing, policy, 0.022, message_bytes=nbytes),
             {})
            for nbytes in (32, 512, 1024)
            for routing, policy, label in (UPDOWN, ITB_RR)]


def _msglen_claims(tab: PointTable) -> List[Claim]:
    # "qualitatively similar": larger messages amortise the per-hop
    # costs, so the saturation point shifts -- the ordering must not
    claims: List[Claim] = []
    for size in ("32 B", "512 B", "1024 B"):
        itb, updown = f"ITB-RR {size}", f"UP/DOWN {size}"
        claims += [_accepted(tab, itb, updown, lo=1.0),
                   _latency(tab, itb, updown, hi=0.8)]
    return claims


_register_study(
    "msglen", "32 / 512 / 1024-byte messages, torus",
    "Message length @ 0.022, 2-D torus", _msglen, _msglen_claims)


def _adaptive(profile: Profile) -> List[Row]:
    """The paper's future work ("route selection algorithms that
    implement some adaptivity at the source host"): the ``adaptive``
    policy's per-pair latency EWMA against ITB-RR, below and at RR's
    knee and under a 5 % hotspot at host 260."""
    hotspot = dict(traffic="hotspot",
                   traffic_kwargs={"hotspot": 260, "fraction": 0.05})
    rows: List[Row] = [
        (f"{policy} uniform @ {rate}",
         _config(profile, "itb", policy, rate), {})
        for policy in ("rr", "adaptive") for rate in (0.025, 0.032)]
    rows += [
        (f"{policy} hotspot @ 0.022",
         _config(profile, "itb", policy, 0.022, **hotspot), {})
        for policy in ("rr", "adaptive")]
    return rows


def _adaptive_claims(tab: PointTable) -> List[Claim]:
    return [
        # below saturation both are fine
        _latency(tab, "adaptive uniform @ 0.025", "rr uniform @ 0.025",
                 hi=1.1),
        # at RR's edge (RR saturates there on 5 of 8 seeds) latency
        # feedback keeps the load flowing
        _sustains(tab, "adaptive uniform @ 0.032"),
        _accepted(tab, "adaptive uniform @ 0.032", "rr uniform @ 0.032",
                  lo=0.97),
        # and it does not lose under a hotspot
        _accepted(tab, "adaptive hotspot @ 0.022", "rr hotspot @ 0.022",
                  lo=0.97)]


_register_study(
    "adaptive", "Latency-adaptive source policy vs ITB-RR, torus",
    "ITB-RR vs the latency-adaptive policy, 2-D torus",
    _adaptive, _adaptive_claims)


def _link_failure(profile: Profile) -> List[Row]:
    """One cable fails and routes are recomputed, as Myrinet does
    (Section 2): a root-adjacent cable (0-1), where up*/down* is already
    congested, or a mid-grid one (27-28).  Each scheme runs at a load
    it sustains on the healthy torus."""
    g = get_graph("torus", {})
    rows: List[Row] = []
    for scenario, ends in (("healthy", None), ("root-link", (0, 1)),
                           ("mid-link", (27, 28))):
        failed = ({} if ends is None else
                  {"topology": "mutated",
                   "topology_kwargs": mutated_kwargs(
                       "torus", {}, [g.link_between(*ends)])})
        rows += [(f"{scenario} {label}",
                  _config(profile, routing, policy, rate, **failed), {})
                 for (routing, policy, label), rate in ((UPDOWN, 0.013),
                                                        (ITB_RR, 0.028))]
    return rows


def _link_failure_claims(tab: PointTable) -> List[Claim]:
    return [
        # ITB-RR carries its (much higher) load through every failure
        *(_sustains(tab, f"{scenario} ITB-RR")
          for scenario in ("healthy", "root-link", "mid-link")),
        _accepted(tab, "root-link ITB-RR", "healthy ITB-RR", lo=0.9),
        # a mid-grid failure is a non-event for UP/DOWN too
        _sustains(tab, "mid-link UP/DOWN")]


_register_study(
    "link-failure", "One failed cable with recomputed tables, torus",
    "One failed cable, tables recomputed, 2-D torus: UP/DOWN @ 0.013, "
    "ITB-RR @ 0.028", _link_failure, _link_failure_claims)
