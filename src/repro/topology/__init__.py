"""Network topologies evaluated in the paper plus generators for extensions.

The paper's evaluation uses three topologies built from 16-port Myrinet
switches with 8 hosts attached to each switch:

* an 8x8 **2-D torus** (64 switches, 512 hosts) -- :func:`build_torus`
* the same torus with **express channels** to second-order neighbours
  (all 16 ports used) -- :func:`build_torus_express`
* the Sandia **CPLANT** machine (50 switches, 400 hosts) --
  :func:`build_cplant`

:func:`build_irregular` generates the random irregular topologies of the
authors' earlier ITB papers, used here for extension studies.

All builders return a :class:`~repro.topology.graph.NetworkGraph` and
are registered by name in :data:`TOPOLOGIES` (a
:class:`repro.registry.Registry`); :func:`build` dispatches through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..registry import REQUIRED, Kwarg, Registry, UsageError
from .graph import GridGeometry, Host, Link, NetworkGraph
from .torus import build_torus
from .express import build_torus_express
from .cplant import build_cplant
from .irregular import build_irregular
from .mesh import build_mesh
from .mutated import build_mutated
from .validate import check_topology


@dataclass(frozen=True)
class Topology:
    """One registered topology builder and the kwargs it takes."""

    name: str
    #: one-line description (shown by ``repro info``)
    description: str
    #: builder: ``build(**kwargs) -> NetworkGraph``
    build: Callable[..., NetworkGraph]
    #: the builder's keyword arguments (pinned to its signature by
    #: ``tests/test_registry.py``); :func:`size_kwargs` maps a command
    #: line's rows / cols / hosts per switch onto whichever of them a
    #: topology declares
    kwargs: Tuple[Kwarg, ...] = ()


#: the topology registry (``SimConfig.topology`` names an entry)
TOPOLOGIES: Registry[Topology] = Registry("topology")

_HOSTS = Kwarg("hosts_per_switch", int, 8, "hosts attached to each switch")
_PORTS = Kwarg("switch_ports", int, 16, "ports per switch")
_GRID = (Kwarg("rows", int, 8, "grid rows"),
         Kwarg("cols", int, 8, "grid columns"), _HOSTS, _PORTS)

TOPOLOGIES.register(Topology(
    "torus", "2-D torus (paper Fig. 4; 8x8, 512 hosts)",
    build_torus, _GRID))
TOPOLOGIES.register(Topology(
    "torus-express", "2-D torus plus express channels to second-order "
    "neighbours", build_torus_express, _GRID))
TOPOLOGIES.register(Topology(
    "cplant", "Sandia CPLANT (50 switches, 400 hosts)",
    build_cplant, (_HOSTS, _PORTS)))
TOPOLOGIES.register(Topology(
    "irregular", "random irregular network of the earlier ITB papers",
    build_irregular,
    (Kwarg("num_switches", int, 16, "switch count"), _HOSTS, _PORTS,
     Kwarg("max_switch_links", int, 4, "inter-switch cables per switch"),
     Kwarg("seed", int, 1, "wiring seed"))))
TOPOLOGIES.register(Topology(
    "mesh", "2-D mesh (no wraparound; dimension-order routing applies)",
    build_mesh, _GRID))
# a base topology plus a failure set, JSON-describable so failure
# configs survive the orchestrator's process boundary (see
# repro.topology.mutated)
TOPOLOGIES.register(Topology(
    "mutated", "a registered base topology minus failed links",
    build_mutated,
    (Kwarg("base", str, REQUIRED, "registered base topology"),
     Kwarg("base_kwargs", dict, None, "kwargs of the base builder"),
     Kwarg("failed_links", list, (), "link ids of the base graph"))))


def sized_topologies() -> List[str]:
    """Topologies buildable from sizes alone: those with no required
    kwarg (``mutated`` needs a base and is reached through
    ``SimConfig``, not a command line)."""
    return [name for name, spec in TOPOLOGIES.items()
            if not any(k.required for k in spec.kwargs)]


def size_kwargs(name: str, rows: Optional[int] = None,
                cols: Optional[int] = None,
                hosts_per_switch: Optional[int] = None) -> Dict[str, int]:
    """The given sizes that topology ``name`` declares, as its
    ``topology_kwargs`` (``repro run`` / ``sweep`` and the studies
    size their fabrics through this)."""
    spec = TOPOLOGIES.get(name)
    required = [k.name for k in spec.kwargs if k.required]
    if required:
        raise UsageError(
            f"topology {name!r} requires {required}, which sizes cannot "
            f"give; buildable from sizes: {', '.join(sized_topologies())}")
    declared = {k.name for k in spec.kwargs}
    given = {"rows": rows, "cols": cols,
             "hosts_per_switch": hosts_per_switch}
    return {key: value for key, value in given.items()
            if key in declared and value is not None}


def build(name: str, **kwargs: Any) -> NetworkGraph:
    """Build a registered topology by name.

    >>> g = build("torus", rows=4, cols=4, hosts_per_switch=2)
    >>> g.num_switches
    16
    """
    return TOPOLOGIES.get(name).build(**kwargs)


__all__ = [
    "NetworkGraph",
    "Host",
    "Link",
    "build",
    "build_torus",
    "build_torus_express",
    "build_cplant",
    "build_irregular",
    "build_mesh",
    "build_mutated",
    "check_topology",
    "size_kwargs",
    "sized_topologies",
    "TOPOLOGIES",
    "Topology",
]
