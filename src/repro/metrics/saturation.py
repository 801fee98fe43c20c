"""Saturation-throughput search (the numbers in Tables 1--3).

The paper reports, per configuration, the *throughput*: the highest
accepted traffic the network sustains.  Past saturation, accepted
traffic stops tracking offered traffic (source queues grow without
bound), so the search strategy is:

1. geometric ramp-up of the offered rate until a run saturates
   (accepted < 95 % of offered);
2. bisection between the last non-saturated and first saturated rate;
3. report the maximum *accepted* traffic observed at a non-saturated
   operating point -- the knee of the curve, which is what the paper's
   tables quote.  (Accepted traffic can keep inching up past the knee
   as uncongested flows push through, but latency is unbounded there.)

The function is engine-agnostic: it takes a ``run_at(rate)`` callable
returning a :class:`~repro.metrics.summary.RunSummary`, so tests can
exercise it with synthetic response curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..canon import PlainData
from .summary import RunSummary

RunAt = Callable[[float], RunSummary]


@dataclass(frozen=True)
class KneePoint:
    """The knee of a latency-vs-offered-load curve.

    The *knee* is the highest offered load at which average latency is
    still within ``threshold`` times the zero-load (lowest-rate)
    latency -- past it the curve bends vertical.  ``bracketed`` says
    whether a later point actually exceeded the threshold: an
    unbracketed knee means the curve never bent within the sweep and
    the true knee lies beyond the last measured rate.
    """

    #: offered load at the knee (x-axis units of the input)
    offered: float
    #: average latency at the knee, same units as the input latencies
    latency: float
    #: index of the knee point in the (sorted) input sequence
    index: int
    #: True when a higher-rate point exceeded the latency threshold
    bracketed: bool


def latency_knee(offered: Sequence[float],
                 latency: Sequence[Optional[float]],
                 threshold: float = 2.0) -> Optional[KneePoint]:
    """Locate the knee of a latency-vs-offered-load curve.

    The NoC-sweep idiom: take the latency of the lowest-load point as
    the zero-load baseline, then report the last point (in ascending
    offered-load order) whose latency stays within ``threshold`` times
    that baseline.  Points with ``None`` latency (no deliveries) are
    ignored.  Returns ``None`` when fewer than one finite point exists.

    The inputs need not be pre-sorted; pairs are sorted by offered
    load here, and ``index`` refers to the sorted order.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1 (it scales the "
                         "zero-load latency)")
    pts = sorted((o, lat) for o, lat in zip(offered, latency)
                 if lat is not None)
    if not pts:
        return None
    base = pts[0][1]
    if base <= 0:
        raise ValueError("zero-load latency must be positive")
    knee_i = 0
    bracketed = False
    for i, (_o, lat) in enumerate(pts):
        if lat <= threshold * base:
            knee_i = i
        else:
            bracketed = True
            break
    o, lat = pts[knee_i]
    return KneePoint(offered=o, latency=lat, index=knee_i,
                     bracketed=bracketed)


def knee_from_runs(runs: Sequence[RunSummary],
                   threshold: float = 2.0) -> Optional[KneePoint]:
    """:func:`latency_knee` over a set of finished runs.

    Saturated runs are excluded up front: their latency is
    window-dependent (the backlog grows without bound), so they carry
    no usable y value even when it happens to fall under the
    threshold.
    """
    stable = [r for r in runs if not r.saturated]
    return latency_knee([r.offered_flits_ns_switch for r in stable],
                        [r.avg_latency_ns for r in stable],
                        threshold)


def knee_throughput(runs: Sequence[RunSummary]) -> float:
    """Saturation throughput of a set of runs: the knee of the curve.

    The highest accepted traffic among *non-saturated* points -- the
    load the network sustains while still tracking offered traffic.
    Past the knee, accepted traffic can keep creeping up (flows that
    avoid the congested region still get through), but latency is
    unbounded there, so the paper reads the knee.  When every run
    saturated the overall maximum is returned as a fallback.
    """
    stable = [r.accepted_flits_ns_switch for r in runs if not r.saturated]
    if stable:
        return max(stable)
    return max(r.accepted_flits_ns_switch for r in runs)


@dataclass(frozen=True)
class SaturationResult(PlainData):
    """Outcome of a saturation search (the ``saturation`` task kind's
    result; the ``inf`` / ``nan`` rates travel as Python's JSON spells
    them)."""

    #: highest accepted traffic observed (flits/ns/switch) -- the
    #: paper's "throughput"
    throughput: float
    #: highest offered rate that was still not saturated; ``nan`` when
    #: every probe saturated (no stable rate was ever measured)
    last_stable_rate: float
    #: lowest offered rate that saturated; ``inf`` when none did
    first_saturated_rate: float
    #: every run performed, in execution order
    runs: List[RunSummary]
    #: True when the search bracketed the knee between a *measured*
    #: stable rate and a measured saturated rate and bisected it; False
    #: when the ramp ran off either end (never saturated within
    #: ``max_rate``, or the downward ramp exhausted ``max_down_steps``
    #: with every probe saturated)
    converged: bool = True


def find_saturation(run_at: RunAt, start_rate: float,
                    growth: float = 1.5, refine_steps: int = 3,
                    max_rate: float = 10.0,
                    max_down_steps: int = 12) -> SaturationResult:
    """Locate saturation throughput via geometric ramp + bisection.

    ``start_rate`` should be comfortably below saturation; ``growth``
    is the ramp factor; ``refine_steps`` bisection iterations bound the
    rate bracket to ``(growth - 1) / 2**refine_steps`` relative error.
    When ``start_rate`` itself saturates the search ramps *down*
    geometrically (at most ``max_down_steps`` times) until a stable
    rate is found, so ``last_stable_rate`` is a measured operating
    point rather than the never-probed 0.0.  When even the downward
    ramp never finds one, the result carries ``converged=False`` and
    ``last_stable_rate=nan`` -- every number reported is something that
    was actually measured.
    """
    if start_rate <= 0:
        raise ValueError("start_rate must be positive")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    runs: List[RunSummary] = []

    def measure(rate: float) -> RunSummary:
        s = run_at(rate)
        runs.append(s)
        return s

    rate = start_rate
    lo = 0.0           # highest known stable rate
    hi = None          # lowest known saturated rate
    while hi is None:
        s = measure(rate)
        if s.saturated:
            hi = rate
        else:
            lo = rate
            rate *= growth
            if rate > max_rate:
                # never saturated within bounds: report what we saw
                return SaturationResult(knee_throughput(runs), lo,
                                        float("inf"), runs, converged=False)

    if lo == 0.0:
        # start_rate saturated on the first probe: no rate below it was
        # measured, so bisecting against lo=0 would misreport a stable
        # rate that was never observed -- ramp down until one is found
        rate = hi / growth
        for _ in range(max_down_steps):
            s = measure(rate)
            if s.saturated:
                hi = rate
                rate /= growth
            else:
                lo = rate
                break
        if lo == 0.0:
            # the downward ramp exhausted max_down_steps with every
            # probe saturated: nothing stable was ever observed, so
            # there is no bracket to bisect.  Report that explicitly
            # instead of anchoring the bisection on the unmeasured 0.0.
            return SaturationResult(knee_throughput(runs), float("nan"),
                                    hi, runs, converged=False)

    for _ in range(refine_steps):
        mid = (lo + hi) / 2
        s = measure(mid)
        if s.saturated:
            hi = mid
        else:
            lo = mid

    return SaturationResult(knee_throughput(runs), lo, hi, runs)
