"""The ``"mutated"`` topology: a registered builder for failed fabrics.

The resilience campaign runs failure configurations through the
orchestrator, whose workers receive plain-JSON :class:`SimConfig`
payloads -- they cannot carry a live post-failure ``NetworkGraph``.
Registering the mutation as a builder closes that gap: a failed fabric
is described by the *base* topology name, its kwargs, and the failure
set, e.g. ::

    SimConfig(topology="mutated",
              topology_kwargs={"base": "torus",
                               "base_kwargs": {"rows": 8, "cols": 8},
                               "failed_links": [3, 17]})

which rebuilds identically in any process and keys the runner's
graph/table memo caches (and the on-disk result store) canonically.

``failed_links`` are link ids of the **base** graph; ``failed_switch``
(applied after link removal) renumbers switch/host ids as documented in
:mod:`repro.topology.mutate` -- use :func:`mutation_maps` to recover
the old->new id maps for a given spec.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .graph import NetworkGraph
from .mutate import SwitchRemoval, without_links, without_switch_mapped


def _base_graph(base: str, base_kwargs: Optional[Dict[str, Any]]) -> NetworkGraph:
    from . import build  # late import: this module is part of the registry
    if base == "mutated":
        raise ValueError("mutated topologies cannot nest")
    return build(base, **(base_kwargs or {}))


def mutated_kwargs(base: str, base_kwargs: Mapping[str, Any],
                   failed_links: Iterable[int]) -> Dict[str, Any]:
    """The ``topology_kwargs`` that describe ``base`` minus
    ``failed_links`` to ``SimConfig(topology="mutated")``."""
    return {"base": base, "base_kwargs": dict(base_kwargs),
            "failed_links": list(failed_links)}


def build_mutated(base: str,
                  base_kwargs: Optional[Dict[str, Any]] = None,
                  failed_links: Iterable[int] = (),
                  failed_switch: Optional[int] = None,
                  require_connected: bool = True) -> NetworkGraph:
    """Build ``base`` and apply the given link/switch failures."""
    g = _base_graph(base, base_kwargs)
    failed = tuple(failed_links)
    if failed:
        g = without_links(g, failed, require_connected=require_connected)
    if failed_switch is not None:
        g = without_switch_mapped(
            g, failed_switch, require_connected=require_connected).graph
    return g


def mutation_maps(base: str,
                  base_kwargs: Optional[Dict[str, Any]] = None,
                  failed_links: Iterable[int] = (),
                  failed_switch: Optional[int] = None,
                  require_connected: bool = True
                  ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Old->new ``(switch_map, host_map)`` for a mutation spec.

    Link failures never renumber switches or hosts, so without a
    ``failed_switch`` both maps are identities.  With one, the maps
    come from :class:`~repro.topology.mutate.SwitchRemoval`.
    """
    g = _base_graph(base, base_kwargs)
    failed = tuple(failed_links)
    if failed:
        g = without_links(g, failed, require_connected=require_connected)
    if failed_switch is None:
        return ({s: s for s in range(g.num_switches)},
                {h: h for h in range(g.num_hosts)})
    removal: SwitchRemoval = without_switch_mapped(
        g, failed_switch, require_connected=require_connected)
    return removal.switch_map, removal.host_map
