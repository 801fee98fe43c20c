"""Packets (messages) in flight.

The paper's workloads send fixed-size messages, each transmitted as a
single Myrinet packet carrying its full source route.  A packet records
the timestamps needed for the latency metrics:

* ``created_ps``  -- handed to the source NIC by the host;
* ``injected_ps`` -- first flit leaves the source NIC (the paper's
  latency is measured from this point: "the injection of a message into
  the network at the source host");
* ``delivered_ps`` -- last flit received by the destination NIC.

Wire length varies per leg: the header holds one route flit per switch
still to be traversed plus one ITB mark per remaining in-transit host
(consumed hop by hop), on top of the payload and the 2-byte type field.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import MyrinetParams
from ..routing.routes import Route, route_hops

#: (interned per-leg header overheads, payload + type bytes) -> per-leg
#: wire lengths: a handful of values serve every packet of every run
_WIRE_BYTES: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}


class Packet:
    """One message travelling along a store-form route
    (:mod:`repro.routing.routes`: ``(overheads, itb_hosts, leg_0,
    ...)``)."""

    __slots__ = ("pid", "src_host", "dst_host", "payload_bytes", "route",
                 "alt_index", "created_ps", "injected_ps", "delivered_ps",
                 "itb_overflows", "_leg_wire_bytes")

    def __init__(self, pid: int, src_host: int, dst_host: int,
                 payload_bytes: int, route: Route,
                 created_ps: int, params: MyrinetParams,
                 alt_index: int = 0) -> None:
        self.pid = pid
        self.src_host = src_host
        self.dst_host = dst_host
        self.payload_bytes = payload_bytes
        self.route = route
        #: index of ``route`` among the pair's routing-table
        #: alternatives -- the stable identifier adaptive policies key
        #: their feedback on (a rebuilt table holds other tuples)
        self.alt_index = alt_index
        self.created_ps = created_ps
        self.injected_ps: Optional[int] = None
        self.delivered_ps: Optional[int] = None
        self.itb_overflows = 0
        # the wire lengths depend only on the route's interned per-leg
        # header overheads and the payload, so packets share one tuple
        # per distinct pair
        overheads = route[0]
        base = payload_bytes + params.header_type_bytes
        key = (overheads, base)
        wires = _WIRE_BYTES.get(key)
        if wires is None:
            wires = _WIRE_BYTES[key] = tuple(base + oh for oh in overheads)
        self._leg_wire_bytes = wires

    @property
    def num_legs(self) -> int:
        return len(self.route) - 2

    @property
    def num_itbs(self) -> int:
        return len(self.route[1])

    @property
    def switch_hops(self) -> int:
        """Inter-switch cables the route crosses."""
        return route_hops(self.route)

    def wire_bytes(self, leg_idx: int) -> int:
        """Flits on the wire while traversing leg ``leg_idx``."""
        return self._leg_wire_bytes[leg_idx]

    @property
    def delivered(self) -> bool:
        return self.delivered_ps is not None

    def latency_ps(self) -> int:
        """Latency from creation to full delivery (includes source queueing)."""
        if self.delivered_ps is None:
            raise ValueError(f"packet {self.pid} not delivered yet")
        return self.delivered_ps - self.created_ps

    def network_latency_ps(self) -> int:
        """Latency from first flit injected to full delivery."""
        if self.delivered_ps is None or self.injected_ps is None:
            raise ValueError(f"packet {self.pid} not delivered yet")
        return self.delivered_ps - self.injected_ps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Packet({self.pid}: h{self.src_host}->h{self.dst_host}, "
                f"{self.payload_bytes}B, {self.num_legs} legs)")
