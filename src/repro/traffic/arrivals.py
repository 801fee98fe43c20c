"""Arrival processes: when each host's next message fires.

All processes are parameterised by the mean inter-message interval
computed from the configured offered load
(:func:`~repro.traffic.base.per_host_interval_ps`) and **preserve that
long-run mean rate** -- they only redistribute firings in time.  A
sweep at offered load x therefore offers x under every arrival model,
and differences in accepted traffic / latency / backlog are purely the
burstiness responding to the network, never a hidden rate change.

* :class:`ConstantArrivals` -- the paper's load model: fixed spacing,
  per-host random initial phase;
* :class:`PoissonArrivals` -- memoryless exponential gaps (M/·/·
  sources; smooth but variable);
* :class:`OnOffArrivals` -- bursty ON/OFF source (the RPF-simulation
  idiom): geometric trains of back-to-back-at-peak-rate messages
  separated by exponential silences, duty cycle ``duty``;
* :class:`AdversarialArrivals` -- an (r, b)-adversary in the sense of
  "Source Routing and Scheduling in Packet Networks" (arXiv
  cs/0203030): every host accumulates ``burst`` tokens and dumps them
  in one aligned volley, so the injection in any window [s, t] is
  bounded by r(t - s) + b while the instantaneous load is maximal.
  Below saturation a stable schedule must keep the backlog bounded;
  a run's ``RunSummary.backlog_growth`` measures that backlog.

Every process registers in :mod:`repro.traffic.registry` with its
declared kwargs, so ``SimConfig(arrival="onoff",
arrival_kwargs={"duty": 0.2})`` and ``--arrival onoff --arrival-arg
duty=0.2`` need no per-process code anywhere else.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence

from .base import ArrivalProcess


def _positive_interval(interval_ps: int) -> int:
    if interval_ps <= 0:
        raise ValueError("interval must be positive")
    return interval_ps


class ConstantArrivals(ArrivalProcess):
    """Fixed spacing with a random initial phase (the paper's model).

    Hosts start with independent random phases so the network is not
    hit by a synchronised volley every interval.
    """

    name = "constant"

    def __init__(self, interval_ps: int) -> None:
        self.interval_ps = _positive_interval(interval_ps)
        self._phased: set = set()

    def next_fire_ps(self, host: int, now_ps: int,
                     rng: random.Random) -> int:
        if host not in self._phased:
            self._phased.add(host)
            return now_ps + rng.randrange(self.interval_ps)
        return now_ps + self.interval_ps

    def fire_times(self, host: int, now_ps: int, t_end_ps: int,
                   rng: random.Random) -> Sequence[int]:
        # the chain adds exactly one interval per step: phase + range
        return range(self.next_fire_ps(host, now_ps, rng), t_end_ps + 1,
                     self.interval_ps)


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-message gaps with the configured mean.

    Memoryless, so no initial-phase special case is needed: the first
    gap is drawn from the same distribution as every other.
    """

    name = "poisson"

    def __init__(self, interval_ps: int) -> None:
        self.interval_ps = _positive_interval(interval_ps)

    def next_fire_ps(self, host: int, now_ps: int,
                     rng: random.Random) -> int:
        return now_ps + max(1, round(rng.expovariate(1.0 / self.interval_ps)))


class OnOffArrivals(ArrivalProcess):
    """Bursty ON/OFF source with duty cycle ``duty``.

    ON periods emit a geometric train (mean ``burst`` messages) spaced
    at the *peak* interval ``duty * interval``; OFF periods are
    exponential silences sized so one ON+OFF cycle averages
    ``burst * interval`` -- the long-run rate equals the configured
    mean, the source is simply ON roughly ``duty`` of the time and
    silent the rest.
    """

    name = "onoff"

    def __init__(self, interval_ps: int, duty: float = 0.25,
                 burst: int = 8) -> None:
        self.interval_ps = _positive_interval(interval_ps)
        if not (0.0 < duty <= 1.0):
            raise ValueError("duty cycle must be in (0, 1]")
        if burst < 1:
            raise ValueError("mean burst length must be >= 1")
        self.duty = duty
        self.burst = burst
        self.peak_interval_ps = max(1, round(interval_ps * duty))
        #: messages still to fire in the current ON train, per host
        self._remaining: Dict[int, int] = {}

    def next_fire_ps(self, host: int, now_ps: int,
                     rng: random.Random) -> int:
        remaining = self._remaining.get(host, 0)
        if remaining > 0:
            self._remaining[host] = remaining - 1
            return now_ps + self.peak_interval_ps
        # start a new ON train after an OFF silence; the message at the
        # returned time is the train's first
        drawn = 1 + _geometric(self.burst - 1, rng)
        self._remaining[host] = drawn - 1
        # one cycle must average drawn * interval; the ON part spends
        # (drawn - 1) peak intervals
        mean_off = (drawn * self.interval_ps
                    - (drawn - 1) * self.peak_interval_ps)
        return now_ps + max(1, round(rng.expovariate(1.0 / max(1, mean_off))))


class AdversarialArrivals(ArrivalProcess):
    """(r, b)-adversarial injection: aligned periodic token dumps.

    Every host banks ``burst`` tokens over ``burst * interval`` and
    releases them in one volley at ``spacing_ps`` apart; all hosts'
    volleys are phase-aligned (the adversary coordinates).  Over any
    window [s, t] each host injects at most ``r (t - s) + burst``
    messages where r is the configured mean rate -- the canonical
    (r, b) constraint -- while the instantaneous offered load at each
    volley boundary is the worst the constraint allows.  A routing /
    scheduling discipline is *stable* against this adversary iff the
    backlog stays bounded whenever r is below saturation.
    """

    name = "adversarial"

    def __init__(self, interval_ps: int, burst: int = 16,
                 spacing_ps: int = 100) -> None:
        self.interval_ps = _positive_interval(interval_ps)
        if burst < 1:
            raise ValueError("adversary burst must be >= 1")
        if spacing_ps < 1:
            raise ValueError("intra-volley spacing must be >= 1 ps")
        if (burst - 1) * spacing_ps >= burst * interval_ps:
            raise ValueError(
                f"volley of {burst} at {spacing_ps} ps spacing does not "
                f"fit one {burst}x{interval_ps} ps cycle: the adversary "
                f"would exceed rate r")
        self.burst = burst
        self.spacing_ps = spacing_ps
        self._remaining: Dict[int, int] = {}

    def next_fire_ps(self, host: int, now_ps: int,
                     rng: random.Random) -> int:
        remaining = self._remaining.get(host)
        if remaining is None:
            # first volley fires immediately and phase-aligned on every
            # host: the adversary's synchronised opening burst
            self._remaining[host] = self.burst - 1
            return now_ps
        if remaining > 0:
            self._remaining[host] = remaining - 1
            return now_ps + self.spacing_ps
        self._remaining[host] = self.burst - 1
        # wait out the rest of the cycle so the long-run rate is exactly r
        return now_ps + (self.burst * self.interval_ps
                         - (self.burst - 1) * self.spacing_ps)


def _geometric(mean: float, rng: random.Random) -> int:
    """Geometric draw on {0, 1, 2, ...} with the given mean (0 -> 0)."""
    if mean <= 0:
        return 0
    # success probability p gives mean (1-p)/p on {0, 1, ...};
    # inverse-CDF sampling: floor(ln(1-u) / ln(1-p))
    p = 1.0 / (1.0 + mean)
    u = rng.random()
    if p == 1.0:  # a mean below ~1e-16: log1p(-1) has no value
        return 0
    return min(int(math.log1p(-u) / math.log1p(-p)), 1_000_000)


def _register() -> None:
    from .registry import ARRIVALS, ArrivalSpec, Kwarg

    ARRIVALS.register(ArrivalSpec(
        name="constant",
        description="fixed inter-message spacing, random initial phase "
                    "(the paper's load model)",
        build=ConstantArrivals,
    ))
    ARRIVALS.register(ArrivalSpec(
        name="poisson",
        description="memoryless exponential gaps at the configured "
                    "mean rate",
        build=PoissonArrivals,
    ))
    ARRIVALS.register(ArrivalSpec(
        name="onoff",
        description="bursty ON/OFF source: geometric trains at peak "
                    "rate separated by exponential silences",
        build=OnOffArrivals,
        kwargs=(Kwarg("duty", float, 0.25,
                      "fraction of time the source is ON, in (0, 1]"),
                Kwarg("burst", int, 8, "mean messages per ON train")),
        label=lambda kw: (f"onoff(d={kw.get('duty', 0.25)},"
                          f"b={kw.get('burst', 8)})"),
    ))
    ARRIVALS.register(ArrivalSpec(
        name="adversarial",
        description="(r, b)-adversary: phase-aligned periodic volleys "
                    "of b messages at long-run rate r",
        build=AdversarialArrivals,
        kwargs=(Kwarg("burst", int, 16, "volley size b (tokens)"),
                Kwarg("spacing_ps", int, 100,
                      "intra-volley spacing in picoseconds")),
        label=lambda kw: f"adv(b={kw.get('burst', 16)})",
    ))


_register()
