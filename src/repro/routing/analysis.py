"""Route-quality statistics quoted in the paper's running text.

Section 4.7.1 reports, for the 8x8 torus:

* 80 % of the UP/DOWN (simple_routes) paths are minimal, vs 100 % for ITB
  (94 % for the express torus, 100 % on CPLANT);
* average distance 4.57 links for UP/DOWN vs 4.06 for ITB;
* 0.43 in-transit buffers per message under ITB-SP and 0.54 under ITB-RR
  (uniform traffic).

:func:`route_statistics` computes all of these from a routing table so
`tests/test_analysis.py`, ``repro info`` and EXPERIMENTS.md can compare
against the paper directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..topology.graph import NetworkGraph
from .table import RoutingTables


@dataclass(frozen=True)
class RouteStats:
    """Aggregate route quality over all ordered switch pairs (src != dst).

    Averages are host-pair weighted the way uniform traffic samples them:
    every ordered pair of distinct switches counts once (hosts are evenly
    spread, so switch-pair weighting matches host-pair weighting up to
    the negligible same-switch terms, which have zero network distance).
    """

    #: fraction of pairs whose *first* route alternative is minimal
    fraction_minimal: float
    #: average switch-link distance of the first alternative (SP traffic)
    avg_distance_sp: float
    #: average switch-link distance over all alternatives (RR traffic)
    avg_distance_rr: float
    #: average minimal (graph) distance -- lower bound for any routing
    avg_minimal_distance: float
    #: average in-transit buffers per message under the SP policy
    avg_itbs_sp: float
    #: average in-transit buffers per message under the RR policy
    avg_itbs_rr: float
    #: maximum in-transit buffers on any single route alternative
    max_itbs: int
    #: average number of alternatives per pair
    avg_alternatives: float


def route_statistics(g: NetworkGraph, tables: RoutingTables) -> RouteStats:
    """Compute :class:`RouteStats` for ``tables`` on ``g``."""
    dist_rows: List[List[int]] = g.all_pairs_distances()
    pairs = 0
    n_minimal = 0
    sum_sp = 0
    sum_rr = 0.0
    sum_min = 0
    sum_itb_sp = 0
    sum_itb_rr = 0.0
    max_itbs = 0
    sum_alts = 0
    for (src, dst), alts in tables.routes.items():
        if src == dst:
            continue
        pairs += 1
        sum_alts += len(alts)
        dmin = dist_rows[src][dst]
        sum_min += dmin
        first = alts[0]
        if first.switch_hops == dmin:
            n_minimal += 1
        sum_sp += first.switch_hops
        sum_itb_sp += first.num_itbs
        sum_rr += sum(r.switch_hops for r in alts) / len(alts)
        sum_itb_rr += sum(r.num_itbs for r in alts) / len(alts)
        max_itbs = max(max_itbs, max(r.num_itbs for r in alts))
    if pairs == 0:
        raise ValueError("network has a single switch; no pairs to analyse")
    return RouteStats(
        fraction_minimal=n_minimal / pairs,
        avg_distance_sp=sum_sp / pairs,
        avg_distance_rr=sum_rr / pairs,
        avg_minimal_distance=sum_min / pairs,
        avg_itbs_sp=sum_itb_sp / pairs,
        avg_itbs_rr=sum_itb_rr / pairs,
        max_itbs=max_itbs,
        avg_alternatives=sum_alts / pairs,
    )
