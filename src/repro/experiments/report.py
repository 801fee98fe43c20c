"""ASCII rendering of figures and tables (console-friendly output).

``repro experiment`` and the examples print these; EXPERIMENTS.md
embeds them.  For the torus topologies the link-utilisation maps are
rendered as an RxC grid of per-switch figures (mean utilisation of the
channels leaving each switch), which makes the paper's "hot around the
root" vs "balanced" contrast directly visible in a terminal.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..config import SimConfig
from .figures import FigureResult, LinkMapResult
from .runner import get_graph
from .tables import HotspotTable, PAPER_TABLE_AVERAGES


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


def render_link_map(res: LinkMapResult,
                    grid: Optional[Tuple[int, int]] = None) -> str:
    """Link-utilisation snapshot; with ``grid=(rows, cols)`` also an
    RxC per-switch heat map (percent utilisation)."""
    u = res.utilization
    s = u.summary()
    lines = [
        f"== {res.fig_id}: {res.title} ==",
        f"rate={res.rate} flits/ns/switch, window={u.window_ps} ps",
        (f"link utilisation: max={s['max']:.1%} mean={s['mean']:.1%} "
         f"min={s['min']:.1%}; {s['frac_below_10pct']:.0%} of links <10%, "
         f"{s['frac_above_30pct']:.0%} >30%"),
        "hottest directed channels (util, src->dst switch):",
    ]
    for util, src, dst, _lid in u.hottest(5):
        lines.append(f"   {util:6.1%}  {src:3d} -> {dst:3d}")
    if grid is not None:
        rows, cols = grid
        totals = [0.0] * (rows * cols)
        counts = [0] * (rows * cols)
        for (src, _dst, _lid), util in zip(u.channel_ends, u.utilization):
            totals[src] += util
            counts[src] += 1
        per_switch = [t / (c or 1) for t, c in zip(totals, counts)]
        lines.append("mean outgoing-channel utilisation per switch (%):")
        for r in range(rows):
            row = " ".join(f"{per_switch[r * cols + c] * 100:5.1f}"
                           for c in range(cols))
            lines.append("   " + row)
    return "\n".join(lines)


def grid_shape(config: SimConfig) -> Optional[Tuple[int, int]]:
    """(rows, cols) of the configured topology, None when it is no grid."""
    grid = get_graph(config.topology, config.topology_kwargs).grid
    return (grid.rows, grid.cols) if grid is not None else None


def render_link_maps(panels: Sequence[LinkMapResult]) -> str:
    """Every panel of a link-utilisation figure, each with the heat
    map of its own topology's grid."""
    return "\n\n".join(render_link_map(p, grid_shape(p.summary.config))
                       for p in panels) + "\n"


def render_hotspot_table(tab: HotspotTable) -> str:
    """A hotspot table in the paper's layout (locations x routings),
    with the paper's average row alongside when known."""
    labels = ["UP/DOWN", "ITB-SP", "ITB-RR"]
    lines = [f"== {tab.table_id}: {tab.title} =="]
    for frac in tab.fractions:
        lines.append(f"-- hotspot load {frac:.0%}")
        lines.append(f"{'hotspot':>8s} " +
                     " ".join(f"{lab:>8s}" for lab in labels))
        for i, loc in enumerate(tab.locations, 1):
            vals = " ".join(f"{tab.throughput[(frac, loc, lab)]:8.4f}"
                            for lab in labels)
            lines.append(f"{i:8d} {vals}")
        avg = tab.averages()
        vals = " ".join(f"{avg[(frac, lab)]:8.4f}" for lab in labels)
        lines.append(f"{'Avg':>8s} {vals}")
        paper = PAPER_TABLE_AVERAGES.get(tab.table_id)
        if paper:
            vals = " ".join(f"{paper[(frac, lab)]:8.4f}" for lab in labels)
            lines.append(f"{'paper':>8s} {vals}")
        factors = tab.improvement_factors()
        lines.append(
            f"{'x UP/DOWN':>8s} {'1.00':>8s} "
            f"{factors[(frac, 'ITB-SP')]:8.2f} "
            f"{factors[(frac, 'ITB-RR')]:8.2f}")
    return "\n".join(lines)

