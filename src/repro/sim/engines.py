"""Engine registry: simulation backends selected by name.

Every :class:`~repro.sim.base.NetworkModel` backend registers itself
under a short name (``"packet"``, ``"flit"``, ``"array"``) in
:data:`ENGINES`, a :class:`repro.registry.Registry`, and everything
outside :mod:`repro.sim` -- the experiment runner, the CLI, config
validation -- dispatches through this registry instead of importing
concrete engine classes.  Registering another engine is one decorator::

    from repro.sim.base import NetworkModel, CAP_BATCH_INJECT
    from repro.sim.engines import register

    @register("analytic")
    class AnalyticNetwork(NetworkModel):
        CAPABILITIES = frozenset({CAP_BATCH_INJECT})
        ...

after which ``SimConfig(engine="analytic")`` just works.
"""

from __future__ import annotations

from typing import Type

from ..config import MyrinetParams
from ..registry import Registry
from ..routing.policies import PathSelectionPolicy
from ..routing.table import RoutingTables
from ..topology.graph import NetworkGraph
from .base import NetworkModel
from .engine import Simulator

#: the engine registry (the spec of an engine is its class)
ENGINES: Registry[Type[NetworkModel]] = Registry("engine")


def register(name: str):
    """Class decorator registering a :class:`NetworkModel` backend."""
    def deco(cls: Type[NetworkModel]) -> Type[NetworkModel]:
        if not (isinstance(cls, type) and issubclass(cls, NetworkModel)):
            raise TypeError(
                f"engine {name!r} must be a NetworkModel subclass, "
                f"got {cls!r}")
        ENGINES.register(cls, name)
        cls.name = name
        return cls
    return deco


def make_network(name: str, sim: Simulator, graph: NetworkGraph,
                 tables: RoutingTables, policy: PathSelectionPolicy,
                 params: MyrinetParams,
                 message_bytes: int = 512) -> NetworkModel:
    """Instantiate the engine registered under ``name``."""
    return ENGINES.get(name)(sim, graph, tables, policy, params,
                             message_bytes=message_bytes)
