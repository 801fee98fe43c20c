"""Tables 1--3: hotspot saturation throughput, declared once.

Each table cell is the saturation throughput of one (routing, hotspot
location, hotspot load) configuration; a table is one
:func:`~repro.experiments.sweep.search_all` over its cells' configs.
Hotspot locations are "chosen randomly" in the paper (10 per
topology); we draw them deterministically from a seed so the tables
are reproducible.  A table is one declared row -- topology, loads with
the paper's average row, claims (see :mod:`.figures`) -- registered in
:data:`~.registry.EXPERIMENTS`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..config import SimConfig
from ..routing.schemes import PAPER_SCHEMES
from .figures import bound_claim, ratio_claim
from .profiles import Profile
from .registry import EXPERIMENTS, Claim, Experiment
from .runner import get_graph
from .sweep import search_all

#: the columns of a table, in the paper's order
LABELS = tuple(label for _, _, label in PAPER_SCHEMES)


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
    #: the paper's average row per fraction, in :data:`LABELS` order
    #: (no entry: the paper gives none)
    paper_averages: Mapping[float, Tuple[float, ...]] = field(
        default_factory=dict)

    def averages(self) -> Dict[Tuple[float, str], float]:
        """Average row of the paper's tables: mean over locations."""
        out: Dict[Tuple[float, str], float] = {}
        for frac in self.fractions:
            for label in LABELS:
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


def render_hotspot_table(tab: HotspotTable) -> str:
    """A hotspot table in the paper's layout (locations x routings),
    with the paper's average row alongside when known."""
    lines = [f"== {tab.table_id}: {tab.title} =="]
    for frac in tab.fractions:
        lines.append(f"-- hotspot load {frac:.0%}")
        lines.append(f"{'hotspot':>8s} " +
                     " ".join(f"{lab:>8s}" for lab in LABELS))
        for i, loc in enumerate(tab.locations, 1):
            vals = " ".join(f"{tab.throughput[(frac, loc, lab)]:8.4f}"
                            for lab in LABELS)
            lines.append(f"{i:8d} {vals}")
        avg = tab.averages()
        vals = " ".join(f"{avg[(frac, lab)]:8.4f}" for lab in LABELS)
        lines.append(f"{'Avg':>8s} {vals}")
        if frac in tab.paper_averages:
            vals = " ".join(f"{v:8.4f}" for v in tab.paper_averages[frac])
            lines.append(f"{'paper':>8s} {vals}")
        factors = tab.improvement_factors()
        lines.append(
            f"{'x UP/DOWN':>8s} {'1.00':>8s} "
            f"{factors[(frac, 'ITB-SP')]:8.2f} "
            f"{factors[(frac, 'ITB-RR')]:8.2f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class HotspotStudy:
    """One of the paper's hotspot tables as declared."""

    table_id: str
    #: the ``repro list`` line and, unless ``title`` says more, the
    #: report's heading
    description: str
    topology: str
    #: hotspot load -> the paper's average row (flits/ns/switch, in
    #: :data:`LABELS` order); the keys are the loads studied
    paper_averages: Mapping[float, Tuple[float, ...]]
    #: where every cell's saturation search starts
    start_rate: float
    claims: Callable[[HotspotTable], List[Claim]]
    title: str = ""


def _hotspot_table(study: HotspotStudy, profile: Profile,
                   executor=None) -> HotspotTable:
    """Fill one table: one saturation search per (fraction, location,
    routing) cell."""
    fractions = tuple(study.paper_averages)
    locations = tuple(pick_hotspots(study.topology,
                                    profile.hotspot_locations))
    cells = [(frac, loc, label,
              SimConfig(topology=study.topology, routing=routing,
                        policy=policy, traffic="hotspot",
                        traffic_kwargs={"hotspot": loc, "fraction": frac},
                        warmup_ps=profile.sat_warmup_ps,
                        measure_ps=profile.sat_measure_ps))
             for frac in fractions
             for loc in locations
             for routing, policy, label in PAPER_SCHEMES]
    searches = search_all([cfg for *_, cfg in cells], profile,
                          study.start_rate, executor)
    return HotspotTable(
        study.table_id, study.title or study.description, study.topology,
        fractions, locations,
        {(frac, loc, label): sat.throughput
         for (frac, loc, label, _), sat in zip(cells, searches)},
        study.paper_averages)


def _register_table(study: HotspotStudy) -> None:
    EXPERIMENTS.register(Experiment(
        study.table_id, "hotspot-table", study.description,
        partial(_hotspot_table, study), render_hotspot_table,
        claims=study.claims))


# -- the paper's claims about each table, then the tables ---------------------

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


_register_table(HotspotStudy(
    "table1", "Hotspot throughput, 2-D torus", "torus",
    {0.05: (0.0125, 0.0267, 0.0274), 0.10: (0.0123, 0.0173, 0.0183)},
    0.006, _table1_claims))

_register_table(HotspotStudy(
    "table2", "Hotspot throughput, express torus", "torus-express",
    {0.03: (0.0483, 0.0546, 0.0542), 0.05: (0.0334, 0.0363, 0.0359)},
    0.015, _table2_claims, title="Hotspot throughput, 2-D torus + express"))

_register_table(HotspotStudy(
    "table3", "Hotspot throughput, CPLANT", "cplant",
    {0.05: (0.0340, 0.0423, 0.0451)}, 0.012, _table3_claims))
