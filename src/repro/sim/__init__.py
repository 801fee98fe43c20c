"""Discrete-event simulation of Myrinet-style source-routed networks.

All engines are backends of one abstract network layer,
:class:`~repro.sim.base.NetworkModel`, which owns the engine-independent
surface (message creation, route selection, delivery callbacks, the
deadlock watchdog, tracer attachment) and a declared-capabilities API.
Backends register by name in :mod:`repro.sim.engines` and are selected
with :func:`make_network`; three ship in-tree:

* ``"packet"`` (:mod:`network`) -- the **packet-level wormhole model**
  used for all paper-scale experiments.  Packets acquire output ports
  hop by hop (150 ns routing, demand-slotted round-robin arbitration)
  and hold every channel of the current leg until the tail drains;
  in-transit hosts eject and re-inject packets with the measured
  275 ns + 200 ns overheads.
* ``"flit"`` (:mod:`flitlevel`) -- a **flit-level model** with explicit
  80-byte slack buffers and the 56/40-byte stop&go protocol; much
  slower, used to validate the packet-level approximation on small
  networks.
* ``"array"`` (:mod:`arrayengine`) -- a **batched greedy-reservation
  model** over flat channel vectors and one heap entry per in-flight
  message, draining admissions and deliveries in batch ticks instead
  of one heap event per arbitration step.  Without per-packet delivery
  callbacks it ticks only at the simulator's next other event, and the
  watchdog, ``reset_stats`` and ``finalize`` catch it up first
  (``NetworkModel._catch_up``); with callbacks ticks are at least
  ``STRIDE_PS`` apart.  Bit-identical to the packet engine when
  uncontended, an order of magnitude faster at paper scale; declares
  the batch injection/delivery capabilities and declines the rest.

Every engine reports link statistics and runs the invariant auditor
and stall diagnoser (abstract methods of the base class).  The
event-driven engines declare the ITB pool, tracing, dynamic faults and
reliable delivery, so metrics and traces are engine-uniform;
capability-declining engines raise
:class:`UnsupportedCapability` instead of fabricating numbers.
:mod:`engine` provides the shared event queue.
"""

from __future__ import annotations

from .base import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT, CAP_DYNAMIC_FAULTS,
                   CAP_ITB_POOL, CAP_RELIABLE_DELIVERY, CAP_TRACE, ItbStats,
                   LinkChannelStats, NetworkModel, NO_ITB_STATS,
                   UnsupportedCapability)
from .engine import Simulator, DeadlockError
from .faults import FaultPlan, LinkFault
from .engines import ENGINES, make_network, register
from .nic import MessageSequencer
from .packet import Packet
from .network import WormholeNetwork
from .flitlevel import FlitLevelNetwork
from .arrayengine import ArrayNetwork
from .reliable import (ReconfigParams, ReconfigurationManager,
                       ReliableParams, ReliableTransport)
from .trace import PacketTracer, TraceEvent, format_trace

__all__ = ["Simulator", "DeadlockError", "Packet", "NetworkModel",
           "UnsupportedCapability", "LinkChannelStats", "ItbStats",
           "NO_ITB_STATS",
           "CAP_ITB_POOL", "CAP_TRACE", "CAP_DYNAMIC_FAULTS",
           "CAP_RELIABLE_DELIVERY", "CAP_BATCH_INJECT", "CAP_BATCH_DELIVERY",
           "FaultPlan", "LinkFault", "MessageSequencer",
           "ReliableParams", "ReliableTransport", "ReconfigParams",
           "ReconfigurationManager",
           "ENGINES", "register", "make_network",
           "WormholeNetwork", "FlitLevelNetwork", "ArrayNetwork",
           "PacketTracer", "TraceEvent", "format_trace"]
