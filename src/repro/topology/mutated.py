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

``failed_links`` are link ids of the **base** graph; switch and host
ids are those of the base (:mod:`repro.topology.mutate`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from .graph import NetworkGraph
from .mutate import without_links


def mutated_kwargs(base: str, base_kwargs: Mapping[str, Any],
                   failed_links: Iterable[int]) -> Dict[str, Any]:
    """The ``topology_kwargs`` that describe ``base`` minus
    ``failed_links`` to ``SimConfig(topology="mutated")``."""
    return {"base": base, "base_kwargs": dict(base_kwargs),
            "failed_links": list(failed_links)}


def build_mutated(base: str,
                  base_kwargs: Optional[Dict[str, Any]] = None,
                  failed_links: Iterable[int] = ()) -> NetworkGraph:
    """Build ``base`` and remove the given links."""
    from . import build  # late import: this module is part of the registry
    if base == "mutated":
        raise ValueError("mutated topologies cannot nest")
    g = build(base, **(base_kwargs or {}))
    failed = tuple(failed_links)
    if failed:
        g = without_links(g, failed)
    return g
