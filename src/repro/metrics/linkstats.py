"""Per-link utilisation maps (Figures 8, 9 and 11 of the paper).

The paper plots, for a given injection rate, the utilisation of every
inter-switch link.  Our channels count transferred flits, so

    utilisation = flits * flit_cycle / measurement_window

per *directed* channel; the per-cable figure used in the paper's maps is
the maximum of the two directions (a cable shows up as hot when either
direction is hot).  The difference between reserved time and transfer
time quantifies the "links idle due to flow control" effect discussed in
Section 4.7.1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import fsum
from typing import List

from ..canon import PlainData
from ..config import MyrinetParams
from ..sim.base import NetworkModel


@dataclass(frozen=True)
class LinkUtilization(PlainData):
    """Utilisation snapshot over one measurement window."""

    window_ps: int
    #: per directed NET channel: (src switch, dst switch, link id)
    channel_ends: List[tuple]
    #: fraction of the window each directed channel spent moving flits
    #: (this and the two below are ``array('d')``)
    utilization: array
    #: fraction of the window each directed channel was reserved
    reserved: array
    #: per physical cable: max of the two directions
    per_link: array

    def summary(self) -> dict:
        """Aggregate numbers quoted in the paper's text."""
        u = self.per_link
        n = len(u)
        return {
            "max": max(u),
            "mean": fsum(u) / n,
            "min": min(u),
            "frac_below_10pct": sum(x < 0.10 for x in u) / n,
            "frac_above_30pct": sum(x > 0.30 for x in u) / n,
        }

    def blocked_fraction(self) -> List[float]:
        """Per directed channel: reserved but not transferring
        (wormhole stalls / flow control idling)."""
        return [r - u for r, u in zip(self.reserved, self.utilization)]

    def hottest(self, k: int = 5) -> List[tuple]:
        """The ``k`` hottest directed channels as
        ``(utilisation, src, dst, link_id)``: utilisation descending,
        exact ties by channel index ascending."""
        u = self.utilization
        order = sorted(range(len(u)), key=lambda i: (-u[i], i))[:k]
        return [(u[i], *self.channel_ends[i]) for i in order]


def collect_link_stats(network: NetworkModel, window_ps: int,
                       params: MyrinetParams) -> LinkUtilization:
    """Snapshot utilisation of all inter-switch channels.

    Works with any engine through the abstract
    :meth:`~repro.sim.base.NetworkModel.link_flit_counts` accessor.
    """
    if window_ps <= 0:
        raise ValueError("window must be positive")
    ends = []
    util = array("d")
    resv = array("d")
    per_link = array("d", [0.0]) * network.graph.num_links
    for ch in network.link_flit_counts():
        ends.append((ch.src, ch.dst, ch.link_id))
        u = ch.flits * params.flit_cycle_ps / window_ps
        util.append(u)
        resv.append(ch.reserved_ps / window_ps)
        per_link[ch.link_id] = max(per_link[ch.link_id], u)
    return LinkUtilization(window_ps, ends, util, resv, per_link)
