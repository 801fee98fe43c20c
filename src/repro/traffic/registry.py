"""Traffic registry: patterns and arrival processes selected by name.

:data:`PATTERNS` and :data:`ARRIVALS` are
:class:`repro.registry.Registry` instances: every destination pattern
and every arrival process registers itself under a short name together
with a **capability declaration** -- which graphs it supports
(power-of-two host counts for bit-reversal), which keyword arguments
it takes (name, type, default, help), and a
kwargs-aware display label -- and everything outside
:mod:`repro.traffic` (config validation, the CLI, the experiment
runner, the tournament) dispatches through this registry instead of
hard-coding pattern names or per-pattern kwarg plumbing.  Registering
a new workload is one call::

    from repro.traffic.registry import PATTERNS, Kwarg, PatternSpec

    PATTERNS.register(PatternSpec(
        name="zipf",
        description="Zipf-popularity destinations",
        build=ZipfTraffic,                  # (graph, **kwargs)
        kwargs=(Kwarg("alpha", float, 1.1, "skew exponent"),),
        supports=lambda g: g.num_hosts >= 2,
    ))

after which ``SimConfig(traffic="zipf")``, ``repro run --traffic zipf
--traffic-arg alpha=1.3``, ``repro traffic`` and the tournament all
pick it up with **zero** CLI or config edits.

Workload specs
--------------

A *workload* is a ``(pattern, arrival)`` pair.  Composite names of the
form ``"<pattern>+<arrival>"`` (e.g. ``"uniform+onoff"``) name both
axes at once; a bare pattern name implies the default constant-rate
arrivals.  :func:`parse_workload` splits such specs and
:func:`make_workload` builds the live pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from ..registry import REQUIRED, Kwarg, Registry  # noqa: F401  (re-exported)
from ..topology.graph import NetworkGraph
from .base import ArrivalProcess, TrafficPattern
from .defaults import DEFAULT_ARRIVAL, DEFAULT_PATTERN  # noqa: F401


def _label(spec: Any, kwargs: Mapping[str, Any]) -> str:
    """Display label of a pattern/arrival spec under resolved kwargs:
    its own ``label`` function, else ``name(k=v,...)``."""
    if spec.label is not None:
        return spec.label(kwargs)
    if not kwargs:
        return spec.name
    inner = ",".join(f"{k}={kwargs[k]}" for k in sorted(kwargs))
    return f"{spec.name}({inner})"


@dataclass(frozen=True)
class PatternSpec:
    """One registered destination pattern and its capability declaration."""

    name: str
    #: one-line description (shown by ``repro traffic`` / docs)
    description: str
    #: builder: ``build(graph, **kwargs) -> TrafficPattern``
    build: Callable[..., TrafficPattern]
    #: declared keyword arguments (everything else is rejected)
    kwargs: Tuple[Kwarg, ...] = ()
    #: graph predicate: is the pattern defined on this network at all?
    supports: Callable[[NetworkGraph], bool] = field(default=lambda g: True)
    #: human-readable supported-topology note for docs/errors
    topology_note: str = "any network with >= 2 hosts"
    #: display label as a function of the resolved kwargs
    label: Optional[Callable[[Mapping[str, Any]], str]] = None


@dataclass(frozen=True)
class ArrivalSpec:
    """One registered arrival process and its declared kwargs."""

    name: str
    description: str
    #: builder: ``build(interval_ps, **kwargs) -> ArrivalProcess``
    build: Callable[..., ArrivalProcess]
    kwargs: Tuple[Kwarg, ...] = ()
    label: Optional[Callable[[Mapping[str, Any]], str]] = None


#: the two traffic registries
PATTERNS: Registry[PatternSpec] = Registry("traffic pattern")
ARRIVALS: Registry[ArrivalSpec] = Registry("arrival process")


def validate_workload(traffic: str, traffic_kwargs: Mapping[str, Any],
                      arrival: str = DEFAULT_ARRIVAL,
                      arrival_kwargs: Mapping[str, Any] = ()) -> None:
    """Graph-free validation of a workload description.

    Checks both names are registered, every kwarg is declared with the
    right type and required kwargs are present.  This is what
    :meth:`repro.config.SimConfig.validate` calls -- adding a pattern
    or process needs no config edits.
    """
    PATTERNS.check_kwargs(traffic, dict(traffic_kwargs))
    ARRIVALS.check_kwargs(arrival, dict(arrival_kwargs or {}))


# -- construction ------------------------------------------------------------


def make_pattern(name: str, graph: NetworkGraph,
                 **kwargs: Any) -> TrafficPattern:
    """Instantiate a registered destination pattern by config name.

    Validates the kwargs against the declaration and the graph against
    the capability predicate before construction, so errors name the
    declared contract rather than surfacing as ``TypeError`` deep in a
    builder.
    """
    PATTERNS.check_kwargs(name, kwargs)
    return PATTERNS.supporting(name, graph).build(graph, **kwargs)


def make_arrival(name: str, interval_ps: int,
                 **kwargs: Any) -> ArrivalProcess:
    """Instantiate a registered arrival process by config name."""
    ARRIVALS.check_kwargs(name, kwargs)
    return ARRIVALS.get(name).build(interval_ps, **kwargs)


def make_workload(graph: NetworkGraph, traffic: str,
                  traffic_kwargs: Mapping[str, Any],
                  arrival: str, arrival_kwargs: Mapping[str, Any],
                  interval_ps: int
                  ) -> Tuple[TrafficPattern, ArrivalProcess]:
    """Build the live (pattern, arrival process) pair of one run."""
    pattern = make_pattern(traffic, graph, **dict(traffic_kwargs))
    return pattern, make_arrival(arrival, interval_ps,
                                 **dict(arrival_kwargs or {}))


# -- workload specs and labels -----------------------------------------------


def parse_workload(spec: str) -> Tuple[str, str]:
    """Split a workload spec into (pattern, arrival) names.

    ``"uniform"`` -> ``("uniform", DEFAULT_ARRIVAL)``;
    ``"uniform+onoff"`` -> ``("uniform", "onoff")``.  Both halves are
    checked against the registries.
    """
    if "+" in spec:
        traffic, _, arrival = spec.partition("+")
    else:
        traffic, arrival = spec, DEFAULT_ARRIVAL
    PATTERNS.get(traffic)
    ARRIVALS.get(arrival)
    return traffic, arrival


def workload_label(traffic: str, traffic_kwargs: Mapping[str, Any] = (),
                   arrival: str = DEFAULT_ARRIVAL,
                   arrival_kwargs: Mapping[str, Any] = ()) -> str:
    """Human-readable label of a workload, e.g. ``hotspot(...)+onoff``."""
    label = _label(PATTERNS.get(traffic), dict(traffic_kwargs or {}))
    if arrival != DEFAULT_ARRIVAL:
        label += "+" + _label(ARRIVALS.get(arrival),
                              dict(arrival_kwargs or {}))
    return label


def power_of_two_hosts(g: NetworkGraph) -> bool:
    """Shared capability predicate: >= 2 hosts, count a power of two."""
    n = g.num_hosts
    return n >= 2 and n & (n - 1) == 0
