"""The abstract network-model layer shared by every simulation engine.

Historically the packet-level and flit-level simulators were two
hand-rolled classes that duplicated their whole public surface (pid
allocation, route selection, ``send``, delivery callbacks, the deadlock
watchdog, ITB leg bookkeeping) while silently diverging in capability:
only the packet engine had link statistics, a tracer and the ITB pool
model, so the experiment runner carried engine conditionals and
fabricated zeros for the rest.

:class:`NetworkModel` owns everything engine-independent and defines a
small contract for backends:

* ``_build()``            -- construct channels / wires / NIC state;
* ``_inject(pkt)``        -- start leg 0 of a freshly created packet;
* ``_reset_engine_stats`` -- zero engine-specific counters at the end
  of warm-up (the base resets nothing else);
* ``_catch_up()``         -- optional: process batched work up to the
  current sim time before an observer (the watchdog, :meth:`finalize`)
  reads the counters;
* ``link_flit_counts()``  -- per directed channel flit accounting;
* ``_audit_engine`` / ``_audit_drained`` / ``_stall_snapshot`` -- the
  runtime invariant auditor's and the stall diagnoser's view of the
  engine (:mod:`repro.sim.invariants`);
* ``_close_engine()``     -- optional: drop engine state that refers
  back to the network, so a finished run is freed by reference count
  (:meth:`NetworkModel.close`).

What every engine does is an abstract method; what only some do is
declared through :meth:`capabilities` (the six ``CAP_*`` names below)
and reached through uniform accessors such as :meth:`itb_stats`;
asking for a capability the engine does not declare raises
:class:`UnsupportedCapability` instead of returning fabricated numbers.
Engines are selected by name through :mod:`repro.sim.engines`, so
callers (runner, CLI, config validation) never mention a concrete
engine class.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..config import MyrinetParams
from ..routing.policies import PathSelectionPolicy
from ..routing.routes import SourceRoute
from ..routing.table import RoutingTables
from ..topology.graph import NetworkGraph
from .engine import DeadlockError, Simulator
from .faults import FaultPlan
from .packet import Packet
from .trace import PacketTracer

DeliveryCallback = Callable[[Packet], None]
DropCallback = Callable[[Packet, int], None]
LinkDeathCallback = Callable[[int, int], None]

#: engine models the finite in-transit buffer pool (admission, peak,
#: overflow staging through host memory)
CAP_ITB_POOL = "itb_pool"
#: engine emits :class:`~repro.sim.trace.PacketTracer` events
CAP_TRACE = "trace"
#: engine supports mid-run link failures (:class:`~repro.sim.faults
#: .FaultPlan`): dead channels drop the worms they strand, NICs
#: blacklist routes crossing dead links
CAP_DYNAMIC_FAULTS = "dynamic_faults"
#: engine exposes the hooks an end-to-end reliability layer needs:
#: in-flight drop notification, forced route selection for
#: retransmissions, and mid-run route-table hot swap
#: (:class:`~repro.sim.reliable.ReliableTransport`)
CAP_RELIABLE_DELIVERY = "reliable_delivery"
#: engine accepts a pregenerated traffic schedule in one call
#: (:meth:`NetworkModel.prime_schedule`) instead of per-message
#: ``send`` events -- the batch engines use this to keep message
#: creation off the event heap entirely
CAP_BATCH_INJECT = "batch_inject"
#: engine can report deliveries through a vectorised sink
#: (:attr:`NetworkModel.delivery_sink`, duck-typed to
#: :meth:`~repro.metrics.collector.LatencyCollector.record_batch`)
#: instead of one callback invocation per packet
CAP_BATCH_DELIVERY = "batch_delivery"


class UnsupportedCapability(RuntimeError):
    """A measurement was requested from an engine that declared itself
    unable to provide it (see :meth:`NetworkModel.capabilities`)."""


@dataclass(frozen=True)
class LinkChannelStats:
    """Flit accounting of one directed inter-switch channel."""

    #: source switch id
    src: int
    #: destination switch id
    dst: int
    #: physical cable id
    link_id: int
    #: flits that crossed the channel since the last stats reset
    flits: int
    #: time the channel was reserved by some packet, picoseconds
    reserved_ps: int


@dataclass(frozen=True)
class ItbStats:
    """Aggregate in-transit buffer pool statistics over all NICs."""

    #: highest single-NIC pool occupancy observed, bytes
    peak_bytes: int
    #: in-transit packets that found their NIC pool full on arrival
    overflow_count: int
    #: in-transit packets processed (ejected + re-injected)
    packets: int


#: what an engine without any ITB traffic reports
NO_ITB_STATS = ItbStats(peak_bytes=0, overflow_count=0, packets=0)


class NetworkModel(ABC):
    """Abstract network layer: one topology + routing tables wired into
    a running simulation, independent of the timing fidelity.

    Subclasses implement the engine contract (the abstract methods; see
    module docstring) and override the uniform accessors for each
    capability they declare.  Everything else -- message creation, route selection,
    delivery bookkeeping, the watchdog -- lives here exactly once.
    """

    #: registry name, set by :func:`repro.sim.engines.register`
    name: str = "abstract"

    #: capabilities this backend declares (override per engine)
    CAPABILITIES: frozenset = frozenset()

    def __init__(self, sim: Simulator, graph: NetworkGraph,
                 tables: RoutingTables, policy: PathSelectionPolicy,
                 params: MyrinetParams, message_bytes: int = 512) -> None:
        if message_bytes <= 0:
            raise ValueError("message size must be positive")
        self.sim = sim
        self.graph = graph
        self.tables = tables
        self.policy = policy
        self.params = params
        self.message_bytes = message_bytes
        #: switch of each host id (route selection reads it per
        #: message, the array engine's admission once per drain)
        self._host_switch = [h.switch for h in graph.hosts]

        self.generated = 0
        self.delivered = 0
        self.delivered_since_check = 0
        #: packets that died in flight on a failed link
        self.dropped = 0
        #: messages refused at the source because no surviving route
        #: avoids the dead links (counted in ``generated`` too)
        self.dropped_unroutable = 0
        #: cable ids killed by the fault plan so far
        self.dead_links: Set[int] = set()
        #: when False, NICs keep using the installed tables verbatim
        #: even while links are dead -- the reconfiguration policy
        #: replaces the tables instead of filtering them
        #: (:class:`~repro.sim.reliable.ReconfigurationManager`)
        self.blacklist_on_fault = True
        #: (src_sw, dst_sw) -> surviving alternatives; rebuilt lazily
        #: and flushed on every link death
        self._routable_cache: Dict[Tuple[int, int],
                                   List[SourceRoute]] = {}
        self._next_pid = 0
        self._delivery_callbacks: List[DeliveryCallback] = []
        self._drop_callbacks: List[DropCallback] = []
        self._link_death_callbacks: List[LinkDeathCallback] = []
        #: optional :class:`~repro.sim.trace.PacketTracer`; engines
        #: without :data:`CAP_TRACE` reject assignment (see setter)
        self._tracer: Optional[PacketTracer] = None
        #: optional batch delivery sink; engines without
        #: :data:`CAP_BATCH_DELIVERY` reject assignment (see setter)
        self._delivery_sink = None
        self._build()

    # -- engine contract ---------------------------------------------------

    @abstractmethod
    def _build(self) -> None:
        """Construct the engine's channels / wires / NIC state."""

    @abstractmethod
    def _inject(self, pkt: Packet) -> None:
        """Start leg 0 of a freshly created packet at the current time."""

    @abstractmethod
    def _reset_engine_stats(self) -> None:
        """Zero engine-specific statistics (end of warm-up)."""

    def _catch_up(self) -> None:
        """Process work batched up to the current sim time, so that
        counters read now are exact.  Default: the engine never defers
        work (event-driven engines)."""

    def _close_engine(self) -> None:
        """Drop engine state that points back at this network (queued
        grant callbacks, child objects holding ``self``); see
        :meth:`close`.  Default: the engine has none."""

    # -- capabilities ------------------------------------------------------

    @classmethod
    def capabilities(cls) -> frozenset:
        """The measurement capabilities this backend declares."""
        return cls.CAPABILITIES

    def require(self, capability: str) -> None:
        """Raise :class:`UnsupportedCapability` unless this engine
        declared ``capability``."""
        if capability not in self.capabilities():
            raise UnsupportedCapability(
                f"engine {self.name!r} does not support {capability!r} "
                f"(declared: {sorted(self.capabilities()) or 'none'})")

    @abstractmethod
    def link_flit_counts(self) -> List[LinkChannelStats]:
        """Per directed inter-switch channel statistics."""

    # -- uniform accessors (overridden by capable engines) -----------------

    def itb_stats(self) -> ItbStats:
        """Aggregate in-transit pool statistics
        (requires :data:`CAP_ITB_POOL`)."""
        self.require(CAP_ITB_POOL)
        raise NotImplementedError(
            f"engine {self.name!r} declares {CAP_ITB_POOL!r} but does "
            "not implement itb_stats()")

    # -- batch interfaces (engines declaring the CAP_BATCH_* caps) ---------

    def prime_schedule(self, schedule) -> None:
        """Hand the engine a pregenerated traffic schedule: a
        :class:`~repro.traffic.base.Schedule`, or any iterable of
        ``(t_ps, src_host, dst_host)`` sorted by time (requires
        :data:`CAP_BATCH_INJECT`).  Entries are injected exactly as if
        ``send(src, dst)`` had been called at ``t_ps``, without one
        event per message on the heap; an unsorted schedule, a host id
        outside the fabric or an entry before the current time is a
        ``ValueError`` here, not a failure mid-run."""
        self.require(CAP_BATCH_INJECT)
        raise NotImplementedError(
            f"engine {self.name!r} declares {CAP_BATCH_INJECT!r} but "
            "does not implement prime_schedule()")

    @property
    def delivery_sink(self):
        return self._delivery_sink

    @delivery_sink.setter
    def delivery_sink(self, sink) -> None:
        if sink is not None:
            self.require(CAP_BATCH_DELIVERY)
        self._delivery_sink = sink

    def finalize(self) -> None:
        """Flush any batched work up to the current sim time (no-op for
        purely event-driven engines).  The runner calls this after the
        final ``run_until`` so batch engines account every delivery with
        ``t <= now`` before the summary is read."""
        self._catch_up()

    def close(self) -> None:
        """End of the run: break every reference cycle through this
        network, so that it -- and the per-packet state, channel arrays
        and schedule it holds -- is freed by reference count when its
        owner lets go, not by some later full garbage collection.

        Registered callbacks are bound methods of objects that hold the
        network (reliable transport, reconfiguration manager); the
        engine hook drops whatever the backend itself ties back.  The
        simulator's side of the knot (pending events, the watchdog) is
        :meth:`~repro.sim.engine.Simulator.clear`.  Counters and
        statistics stay readable; nothing may be sent afterwards.
        """
        self._delivery_callbacks.clear()
        self._drop_callbacks.clear()
        self._link_death_callbacks.clear()
        self._close_engine()

    # -- tracer ------------------------------------------------------------

    @property
    def tracer(self) -> Optional[PacketTracer]:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Optional[PacketTracer]) -> None:
        if tracer is not None:
            self.require(CAP_TRACE)
        self._tracer = tracer

    def _trace(self, event: str, pid: int, node: int, leg: int,
               t_ps: Optional[int] = None) -> None:
        """Record a tracer event (no-op without an attached tracer)."""
        if self._tracer is not None:
            self._tracer.record(self.sim.now if t_ps is None else t_ps,
                                event, pid, node, leg)

    # -- shared public API -------------------------------------------------

    def add_delivery_callback(self, cb: DeliveryCallback) -> None:
        """``cb(packet)`` runs at the instant a packet is fully delivered."""
        self._delivery_callbacks.append(cb)

    def add_drop_callback(self, cb: DropCallback) -> None:
        """``cb(packet, t_ps)`` runs when a packet dies in flight
        (requires :data:`CAP_RELIABLE_DELIVERY`)."""
        self.require(CAP_RELIABLE_DELIVERY)
        self._drop_callbacks.append(cb)

    def add_link_death_callback(self, cb: LinkDeathCallback) -> None:
        """``cb(link_id, t_ps)`` runs when a fault plan kills a cable
        (requires :data:`CAP_DYNAMIC_FAULTS`)."""
        self.require(CAP_DYNAMIC_FAULTS)
        self._link_death_callbacks.append(cb)

    def send(self, src_host: int, dst_host: int,
             nbytes: Optional[int] = None,
             route_index: Optional[int] = None) -> Optional[Packet]:
        """Hand a message to ``src_host``'s NIC at the current sim time.

        ``nbytes`` overrides the network's default message size (the
        paper uses one fixed size per simulation).  Returns ``None``
        when dead links (see :meth:`install_fault_plan`) leave the pair
        without a surviving route: the message is refused at the source
        and counted in ``dropped_unroutable``.

        ``route_index`` forces the alternative with that table index
        (modulo the number of alternatives) instead of asking the path
        selection policy -- the reliability layer uses this to fail a
        retransmission over to the *next* route after repeated
        timeouts, bypassing the blacklist so the attempt probes the
        fabric as the transport sees it.
        """
        if src_host == dst_host:
            raise ValueError("a host does not send messages to itself")
        selected = self._select_route(src_host, dst_host, route_index)
        if selected is None:
            self.generated += 1
            self.dropped += 1
            self.dropped_unroutable += 1
            self._trace("unroutable", self._next_pid, src_host, 0)
            self._next_pid += 1
            return None
        route, alt_index = selected
        pkt = Packet(self._next_pid, src_host, dst_host,
                     nbytes if nbytes is not None else self.message_bytes,
                     route, self.sim.now, self.params,
                     alt_index=alt_index)
        self._next_pid += 1
        self.generated += 1
        self._inject(pkt)
        return pkt

    @property
    def in_flight(self) -> int:
        return self.generated - self.delivered - self.dropped

    @property
    def dropped_in_flight(self) -> int:
        """Packets that died *inside* the fabric (stranded on a dying
        link), as opposed to refusals at the source NIC."""
        return self.dropped - self.dropped_unroutable

    def install_watchdog(self, interval_ps: int) -> None:
        """Abort with :class:`DeadlockError` when packets are in flight
        but nothing was delivered for a whole ``interval_ps``.

        The error carries a JSON-safe stall diagnosis (channel owners,
        blocked worms, route legs, detected wait-for cycle) instead of
        a bare "no progress" message.
        """
        def check() -> None:
            # a batch engine may not have drained up to this instant
            self._catch_up()
            if self.in_flight > 0 and self.delivered_since_check == 0:
                from .invariants import diagnose_stall
                raise DeadlockError(
                    f"{self.name} engine: no delivery for {interval_ps} ps "
                    f"with {self.in_flight} packets in flight "
                    f"at t={self.sim.now}", diagnosis=diagnose_stall(self))
            self.delivered_since_check = 0
        self.sim.set_watchdog(interval_ps, check)

    # -- runtime invariants -------------------------------------------------

    @abstractmethod
    def _audit_engine(self, check: Callable[[bool, str], None]) -> None:
        """Engine hook: run engine-specific structural invariants
        through ``check(condition, description)``."""

    @abstractmethod
    def _audit_drained(self, check: Callable[[bool, str], None]) -> None:
        """Engine hook: invariants that hold only with zero packets in
        flight (empty buffers, free arbiters, zeroed ITB pools)."""

    @abstractmethod
    def _stall_snapshot(self) -> Dict:
        """Engine hook: JSON-safe stall state (channel owners, blocked
        worms, wait-for edges) for :func:`repro.sim.invariants
        .diagnose_stall`."""

    def reset_stats(self) -> None:
        """End-of-warm-up reset of the engine's statistics."""
        self._reset_engine_stats()

    def swap_tables(self, tables: RoutingTables) -> None:
        """Hot-swap the NIC route tables mid-run
        (requires :data:`CAP_RELIABLE_DELIVERY`).

        Packets already in flight keep the routes their headers were
        built with (source routing: the path is committed at
        injection); every later :meth:`send` uses the new tables.  The
        tables must be expressed in *this* graph's link ids -- when
        they were computed on a mutated copy, remap them first
        (:meth:`repro.routing.table.RoutingTables.with_remapped_links`).
        """
        self.require(CAP_RELIABLE_DELIVERY)
        self.tables = tables
        self._routable_cache.clear()
        self._trace("reconfig", -1, -1, 0)

    # -- dynamic faults ----------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Schedule the plan's link failures
        (requires :data:`CAP_DYNAMIC_FAULTS`)."""
        self.require(CAP_DYNAMIC_FAULTS)
        num_links = self.graph.num_links
        for f in plan.faults:
            if f.link_id >= num_links:
                raise ValueError(
                    f"fault plan kills link {f.link_id} but the graph "
                    f"has only {num_links} links")
        for f in plan.faults:
            self.sim.at(max(f.t_ps, self.sim.now), self._fail_link,
                        f.link_id)

    def _fail_link(self, link_id: int) -> None:
        """Kill one cable *now*: blacklist it for future routing and let
        the engine drop whatever it strands."""
        if link_id in self.dead_links:
            return
        self.dead_links.add(link_id)
        self._routable_cache.clear()
        self._trace("link_down", -1, self.graph.links[link_id].a, 0)
        self._kill_link(link_id)
        for cb in self._link_death_callbacks:
            cb(link_id, self.sim.now)

    def _kill_link(self, link_id: int) -> None:
        """Engine hook: tear down the cable's directed channels and drop
        stranded packets.  Engines declaring
        :data:`CAP_DYNAMIC_FAULTS` must override."""
        raise NotImplementedError(
            f"engine {self.name!r} declares {CAP_DYNAMIC_FAULTS!r} but "
            "does not implement _kill_link()")

    def _finish_drop(self, pkt: Packet, t_ps: int) -> None:
        """Common bookkeeping for a packet dropped in flight."""
        self.dropped += 1
        # a drop is forward progress for the watchdog: the fabric is
        # not deadlocked, it is shedding stranded worms
        self.delivered_since_check += 1
        self._trace("drop", pkt.pid, pkt.dst_host, 0, t_ps=t_ps)
        for cb in self._drop_callbacks:
            cb(pkt, t_ps)

    # -- shared internals --------------------------------------------------

    def _select_route(self, src_host: int, dst_host: int,
                      route_index: Optional[int] = None,
                      ) -> Optional[Tuple[SourceRoute, int]]:
        """The route for the next packet of a pair and its alternative
        index (carried on the packet for policy feedback), or ``None``
        when every alternative crosses a dead link."""
        host_switch = self._host_switch
        src_sw = host_switch[src_host]
        dst_sw = host_switch[dst_host]
        alts = self.tables.routes[(src_sw, dst_sw)]
        if route_index is not None:
            # forced selection (reliability-layer failover): no
            # blacklist filtering -- the retransmission itself is the
            # probe of whether the route still works
            i = route_index % len(alts)
            return alts[i], i
        if not self.dead_links or not self.blacklist_on_fault:
            if len(alts) == 1:
                return alts[0], 0
            i = self.policy.select_index(src_host, dst_host, alts)
            return alts[i], i
        pair = (src_sw, dst_sw)
        live = self._routable_cache.get(pair)
        if live is None:
            dead = self.dead_links
            live = [r for r in alts if not dead.intersection(r.link_ids)]
            self._routable_cache[pair] = live
        if not live:
            return None
        if len(live) == 1:
            route = live[0]
        else:
            route = live[self.policy.select_index(src_host, dst_host, live)]
        # policy feedback keys on the index among the *original* table
        # alternatives, which stays stable across blacklist changes
        return route, alts.index(route)

    def _leg_target_host(self, pkt: Packet, leg_idx: int) -> int:
        """The NIC a leg ends at: an in-transit host, or the destination."""
        if leg_idx == pkt.num_legs - 1:
            return pkt.dst_host
        return pkt.route.itb_hosts[leg_idx]

    def _finish_delivery(self, pkt: Packet, t_ps: int) -> None:
        """Common delivery bookkeeping, run at the delivery instant."""
        pkt.delivered_ps = t_ps
        self.delivered += 1
        self.delivered_since_check += 1
        if self._tracer is not None:
            self._trace("deliver", pkt.pid, pkt.dst_host,
                        pkt.num_legs - 1, t_ps=t_ps)
        for cb in self._delivery_callbacks:
            cb(pkt)
