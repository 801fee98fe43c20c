"""Regeneration of Tables 1--3: hotspot saturation throughput.

Each table cell is the saturation throughput of one (routing, hotspot
location, hotspot load) configuration; a table is one
:func:`~repro.experiments.sweep.search_all` over its cells' configs.
Hotspot locations are "chosen randomly" in the paper (10 per
topology); we draw them deterministically from a seed so the tables
are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..routing.schemes import PAPER_SCHEMES
from .figures import Claim, bound_claim, ratio_claim
from .profiles import Profile
from .runner import get_graph
from .sweep import search_all


@dataclass(frozen=True)
class HotspotTable:
    """One of the paper's hotspot tables."""

    table_id: str
    title: str
    topology: str
    #: hotspot loads studied (e.g. 0.05 and 0.10 for Table 1)
    fractions: Tuple[float, ...]
    #: hotspot host ids used
    locations: Tuple[int, ...]
    #: throughput[(fraction, location, label)] in flits/ns/switch
    throughput: Dict[Tuple[float, int, str], float]

    def averages(self) -> Dict[Tuple[float, str], float]:
        """Average row of the paper's tables: mean over locations."""
        out: Dict[Tuple[float, str], float] = {}
        for frac in self.fractions:
            for _, _, label in PAPER_SCHEMES:
                vals = [self.throughput[(frac, loc, label)]
                        for loc in self.locations]
                out[(frac, label)] = sum(vals) / len(vals)
        return out

    def improvement_factors(self) -> Dict[Tuple[float, str], float]:
        """ITB throughput relative to UP/DOWN (the paper's 2.13x etc.)."""
        avg = self.averages()
        out: Dict[Tuple[float, str], float] = {}
        for frac in self.fractions:
            base = avg[(frac, "UP/DOWN")]
            for label in ("ITB-SP", "ITB-RR"):
                out[(frac, label)] = avg[(frac, label)] / base
        return out


def pick_hotspots(topology: str, count: int, seed: int = 7,
                  topology_kwargs: Optional[dict] = None) -> List[int]:
    """Deterministically draw ``count`` distinct hotspot host ids."""
    g = get_graph(topology, topology_kwargs or {})
    rng = random.Random(f"{seed}:{topology}:{count}")
    return sorted(rng.sample(range(g.num_hosts), count))


def _hotspot_table(table_id: str, title: str, topology: str,
                   fractions: Tuple[float, ...], profile: Profile,
                   start_rate: float, seed: int = 7,
                   executor=None) -> HotspotTable:
    """Fill one table: one saturation search per (fraction, location,
    routing) cell."""
    locations = tuple(pick_hotspots(topology, profile.hotspot_locations,
                                    seed))
    cells = [(frac, loc, label,
              SimConfig(topology=topology, routing=routing, policy=policy,
                        traffic="hotspot",
                        traffic_kwargs={"hotspot": loc, "fraction": frac},
                        warmup_ps=profile.sat_warmup_ps,
                        measure_ps=profile.sat_measure_ps))
             for frac in fractions
             for loc in locations
             for routing, policy, label in PAPER_SCHEMES]
    searches = search_all([cfg for *_, cfg in cells], profile, start_rate,
                          executor)
    return HotspotTable(
        table_id, title, topology, fractions, locations,
        {(frac, loc, label): sat.throughput
         for (frac, loc, label, _), sat in zip(cells, searches)})


def table1(profile: Profile, executor=None) -> HotspotTable:
    """Table 1: 2-D torus, 5 % and 10 % hotspot traffic.

    Paper averages (flits/ns/switch): 5 % -> 0.0125 / 0.0267 / 0.0274;
    10 % -> 0.0123 / 0.0173 / 0.0183 for UP/DOWN / ITB-SP / ITB-RR.
    """
    return _hotspot_table("table1", "Hotspot throughput, 2-D torus",
                          "torus", (0.05, 0.10), profile,
                          start_rate=0.006, executor=executor)


def table2(profile: Profile, executor=None) -> HotspotTable:
    """Table 2: express torus, 3 % and 5 % hotspot traffic.

    Paper averages: 3 % -> 0.0483 / 0.0546 / 0.0542;
    5 % -> 0.0334 / 0.0363 / 0.0359.
    """
    return _hotspot_table("table2",
                          "Hotspot throughput, 2-D torus + express",
                          "torus-express", (0.03, 0.05), profile,
                          start_rate=0.015, executor=executor)


def table3(profile: Profile, executor=None) -> HotspotTable:
    """Table 3: CPLANT, 5 % hotspot traffic.

    Paper averages: 0.0340 / 0.0423 / 0.0451.
    """
    return _hotspot_table("table3", "Hotspot throughput, CPLANT",
                          "cplant", (0.05,), profile, start_rate=0.012, executor=executor)


#: paper-reported average rows, for EXPERIMENTS.md comparison
PAPER_TABLE_AVERAGES: Dict[str, Dict[Tuple[float, str], float]] = {
    "table1": {(0.05, "UP/DOWN"): 0.0125, (0.05, "ITB-SP"): 0.0267,
               (0.05, "ITB-RR"): 0.0274, (0.10, "UP/DOWN"): 0.0123,
               (0.10, "ITB-SP"): 0.0173, (0.10, "ITB-RR"): 0.0183},
    "table2": {(0.03, "UP/DOWN"): 0.0483, (0.03, "ITB-SP"): 0.0546,
               (0.03, "ITB-RR"): 0.0542, (0.05, "UP/DOWN"): 0.0334,
               (0.05, "ITB-SP"): 0.0363, (0.05, "ITB-RR"): 0.0359},
    "table3": {(0.05, "UP/DOWN"): 0.0340, (0.05, "ITB-SP"): 0.0423,
               (0.05, "ITB-RR"): 0.0451},
}


# -- the paper's claims about each table (see :mod:`.figures`) ----------------

def _gain(tab: HotspotTable, fraction: float, label: str, paper: str,
          lo: Optional[float] = None, hi: Optional[float] = None) -> Claim:
    """Bounds on ``label``'s average throughput relative to UP/DOWN's."""
    avg = tab.averages()
    return ratio_claim(f"{fraction:.0%} hotspot: {label} average",
                       avg[(fraction, label)],
                       f"UP/DOWN's (paper {paper})",
                       avg[(fraction, "UP/DOWN")], lo, hi)


def _table1_claims(tab: HotspotTable) -> List[Claim]:
    avg, gains = tab.averages(), tab.improvement_factors()
    return [
        # ITB wins clearly at 5 % and still wins at 10 %, by less
        _gain(tab, 0.05, "ITB-SP", "x2.13", lo=1.55),
        _gain(tab, 0.05, "ITB-RR", "x2.19", lo=1.3),
        _gain(tab, 0.10, "ITB-SP", "x1.40", lo=1.25),
        _gain(tab, 0.10, "ITB-RR", "x1.48", lo=1.25),
        *(ratio_claim(f"{label} gain at 10 %", gains[(0.10, label)],
                      "at 5 %", gains[(0.05, label)], hi=1.1)
          for label in ("ITB-SP", "ITB-RR")),
        # UP/DOWN barely notices the hotspot: its root is the bigger one
        *(bound_claim(f"{frac:.0%} hotspot: UP/DOWN average (paper 0.012; "
                      "uniform knee 0.017)", avg[(frac, "UP/DOWN")], lo=0.012)
          for frac in tab.fractions)]


def _table2_claims(tab: HotspotTable) -> List[Claim]:
    avg = tab.averages()
    paper = {(0.03, "ITB-SP"): "x1.13", (0.03, "ITB-RR"): "x1.12",
             (0.05, "ITB-SP"): "x1.08", (0.05, "ITB-RR"): "x1.07"}
    return [
        # small gains, not the x2 of uniform traffic (the saturated
        # links are express channels at the hotspot, which ITBs cannot
        # relieve), yet ITB never loses
        *(_gain(tab, frac, label, factor, lo=0.95, hi=1.6)
          for (frac, label), factor in paper.items()),
        # a heavier hotspot costs everyone throughput
        *(ratio_claim(f"{label} average at 5 %", avg[(0.05, label)],
                      "at 3 %", avg[(0.03, label)], hi=1.0)
          for label in ("UP/DOWN", "ITB-RR"))]


def _table3_claims(tab: HotspotTable) -> List[Claim]:
    # moderate gains from traffic balance alone (on CPLANT up*/down*
    # is already minimal everywhere)
    return [_gain(tab, 0.05, "ITB-SP", "x1.24", lo=0.95, hi=1.7),
            _gain(tab, 0.05, "ITB-RR", "x1.32", lo=0.95, hi=1.7)]


CLAIMS: Dict[str, Callable[[HotspotTable], List[Claim]]] = {
    "table1": _table1_claims,
    "table2": _table2_claims,
    "table3": _table3_claims,
}
