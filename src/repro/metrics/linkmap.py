"""Link-utilisation maps as text (Figures 8, 9 and 11, and ``repro run
--links``).

A map is one :class:`~repro.metrics.linkstats.LinkUtilization`
snapshot with what it was taken of; :func:`render_link_map` prints it,
with a per-switch heat map when the topology is a grid
(:func:`grid_shape`).  It lives with the metrics, not with the study
catalogue, so a single run can print one without loading the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import SimConfig
from ..runner import get_graph
from .linkstats import LinkUtilization
from .summary import RunSummary


@dataclass(frozen=True)
class LinkMapResult:
    """One link-utilisation snapshot (a panel of Figures 8/9/11)."""

    fig_id: str
    title: str
    label: str
    rate: float
    utilization: LinkUtilization
    summary: RunSummary


def render_link_map(res: LinkMapResult,
                    grid: Optional[Tuple[int, int]] = None) -> str:
    """Link-utilisation snapshot; with ``grid=(rows, cols)`` also an
    RxC per-switch heat map (percent utilisation: the mean of the
    channels leaving each switch), which makes the paper's "hot around
    the root" vs "balanced" contrast visible in a terminal."""
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
