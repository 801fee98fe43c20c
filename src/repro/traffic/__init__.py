"""Traffic fabric: destination patterns x arrival processes.

Every workload is the composition of a **destination pattern** (where
messages go) and an **arrival process** (when they fire); any pattern
composes with any process, and both sides dispatch through the
capability-declaring registries in :mod:`repro.traffic.registry`
(:data:`PATTERNS`, :data:`ARRIVALS`).

Destination patterns (Section 4.2 + extensions):

* ``uniform`` -- uniformly random destination;
* ``bit-reversal`` -- destination is the bit-reversed source id
  (power-of-two host counts);
* ``hotspot`` -- a fixed share of all messages target one host;
* ``local`` -- destinations at most ``radius`` switches away;
* ``transpose`` / ``complement`` -- companion permutations;
* ``incast`` -- many-to-one (:mod:`repro.traffic.collective`).

Arrival processes (:mod:`repro.traffic.arrivals`): ``constant`` (the
paper's load model), ``poisson``, ``onoff`` and the
(r, b)-``adversarial`` injector.  All preserve the configured mean
rate.

:func:`make_pattern` / :func:`make_arrival` /
:func:`make_workload` build registered entries by config name, and
:class:`TrafficProcess` drives a workload on the simulator -- event by
event, or drawn up front as one columnar :class:`Schedule` that every
run offering the same traffic shares.
"""

from __future__ import annotations

from .base import (ArrivalProcess, Schedule, TrafficPattern, TrafficProcess,
                   per_host_interval_ps)
from .registry import (ARRIVALS, DEFAULT_ARRIVAL, DEFAULT_PATTERN, PATTERNS,
                       ArrivalSpec, Kwarg, PatternSpec, make_arrival,
                       make_pattern, make_workload, parse_workload,
                       validate_workload, workload_label)
from .arrivals import (AdversarialArrivals, ConstantArrivals, OnOffArrivals,
                       PoissonArrivals)
from .uniform import UniformTraffic
from .bitreversal import BitReversalTraffic
from .hotspot import HotspotTraffic
from .local import LocalTraffic
from .permutation import ComplementTraffic, TransposeTraffic
from .collective import IncastTraffic

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "Schedule",
    "TrafficPattern",
    "TrafficProcess",
    "Kwarg",
    "PatternSpec",
    "per_host_interval_ps",
    "DEFAULT_ARRIVAL",
    "DEFAULT_PATTERN",
    "make_arrival",
    "make_pattern",
    "make_workload",
    "parse_workload",
    "validate_workload",
    "workload_label",
    "UniformTraffic",
    "BitReversalTraffic",
    "HotspotTraffic",
    "LocalTraffic",
    "TransposeTraffic",
    "ComplementTraffic",
    "IncastTraffic",
    "ConstantArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "AdversarialArrivals",
    "PATTERNS",
    "ARRIVALS",
]
