"""Execution profiles: full-scale paper runs vs fast bench runs.

Every experiment is parameterised by a :class:`Profile` so the same code
serves two purposes:

* ``PAPER`` -- windows and repetition counts sized for stable statistics
  at the paper's 512-host scale; used to fill EXPERIMENTS.md (seconds
  to a minute per artefact in pure Python);
* ``BENCH`` -- reduced measurement windows, subsampled rate grids and
  fewer hotspot locations; preserves orderings and rough ratios while
  finishing in seconds, so tier-1 can assert every paper claim at
  paper scale (``tests/test_paper_claims.py``).  The claims of an
  experiment are calibrated at this profile and reported from its
  windows up.

Nothing else differs: same topologies (full 512-host networks), same
routing tables, same timing constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..units import ns


@dataclass(frozen=True)
class Profile:
    """Knobs that trade statistical weight for wall-clock time."""

    name: str
    #: warm-up before measurement starts
    warmup_ps: int
    #: measurement window
    measure_ps: int
    #: keep every k-th point of a figure's rate grid (1 = all)
    rate_stride: int
    #: hotspot locations per table (paper: 10)
    hotspot_locations: int
    #: shorter windows used inside saturation searches
    sat_warmup_ps: int
    sat_measure_ps: int
    #: bisection refinement steps in saturation searches
    sat_refine_steps: int
    #: geometric ramp factor in saturation searches
    sat_growth: float

    def thin(self, rates: Sequence[float]) -> List[float]:
        """Subsample a rate grid, always keeping the last (highest)
        point so the curve still reaches saturation."""
        if self.rate_stride <= 1 or len(rates) <= 2:
            return list(rates)
        kept = list(rates[::self.rate_stride])
        if kept[-1] != rates[-1]:
            kept.append(rates[-1])
        return kept


PAPER = Profile(
    name="paper",
    warmup_ps=ns(150_000),
    measure_ps=ns(600_000),
    rate_stride=1,
    hotspot_locations=10,
    sat_warmup_ps=ns(80_000),
    sat_measure_ps=ns(250_000),
    sat_refine_steps=3,
    sat_growth=1.4,
)

BENCH = Profile(
    name="bench",
    warmup_ps=ns(80_000),
    measure_ps=ns(300_000),
    rate_stride=2,
    hotspot_locations=2,
    sat_warmup_ps=ns(50_000),
    sat_measure_ps=ns(150_000),
    sat_refine_steps=1,
    sat_growth=1.6,
)

#: tiny profile for unit/integration tests on scaled-down topologies
TEST = Profile(
    name="test",
    warmup_ps=ns(20_000),
    measure_ps=ns(60_000),
    rate_stride=4,
    hotspot_locations=1,
    sat_warmup_ps=ns(15_000),
    sat_measure_ps=ns(40_000),
    sat_refine_steps=1,
    sat_growth=1.8,
)
