"""Dynamic fault plans: links that die at simulation time.

The static failure path (:mod:`repro.topology.mutate`) models a fabric
that was *already* broken when the routing tables were computed.  A
:class:`FaultPlan` models the other half of the paper's premise -- the
NIC detecting "changes in the network topology" while traffic is in
flight: each :class:`LinkFault` kills one cable at a scheduled instant.

Semantics (shared by both engines, behind ``CAP_DYNAMIC_FAULTS``):

* both directed channels of the cable die at ``t_ps``;
* a worm stranded on the dead cable is **dropped**: every channel it
  held is released, its in-transit pool reservation is credited back,
  and it is counted in ``NetworkModel.dropped`` -- never delivered,
  never hung.  The engines differ only in how far "stranded" reaches,
  matching their fidelity: the packet engine commits a transfer once
  the header reaches its leg-target NIC (the tail wave streams out
  even across the dying link), while the flit engine drops any packet
  that still occupies the cable when it dies (a truncated tail means
  the packet is lost);
* NICs blacklist routes crossing dead links for all *future* sends; a
  pair left with no surviving route drops at the source
  (``dropped_unroutable``).

Plans are JSON-safe so they can ride inside orchestrator task payloads
like every other run parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..canon import PlainData


@dataclass(frozen=True)
class LinkFault(PlainData):
    """One cable failing at one instant."""

    #: simulation time the cable dies, picoseconds
    t_ps: int
    #: cable id in the simulated graph
    link_id: int

    def __post_init__(self) -> None:
        if self.t_ps < 0:
            raise ValueError("fault time must be non-negative")
        if self.link_id < 0:
            raise ValueError("link id must be non-negative")


@dataclass(frozen=True)
class FaultPlan(PlainData):
    """A schedule of link failures, ordered by time."""

    faults: Tuple[LinkFault, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "faults",
            tuple(sorted(self.faults, key=lambda f: (f.t_ps, f.link_id))))
        seen = set()
        for f in self.faults:
            if f.link_id in seen:
                raise ValueError(f"link {f.link_id} fails twice in the plan")
            seen.add(f.link_id)

    @classmethod
    def at(cls, *faults: Tuple[int, int]) -> "FaultPlan":
        """Build from ``(t_ps, link_id)`` pairs."""
        return cls(tuple(LinkFault(t, lid) for t, lid in faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def first_t_ps(self) -> int:
        """Instant of the earliest fault (the plan must be non-empty).

        Recovery metrics anchor on this: time-to-recover is measured
        from the moment the fabric first changes.
        """
        if not self.faults:
            raise ValueError("empty fault plan has no first fault")
        return self.faults[0].t_ps

    @property
    def link_ids(self) -> Tuple[int, ...]:
        """All cables the plan kills, in failure order."""
        return tuple(f.link_id for f in self.faults)
