"""Flit-level network engine with explicit slack buffers and stop&go.

This is the high-fidelity counterpart of :mod:`repro.sim.network`.  It
moves individual flits:

* every directed channel transmits one flit per 6.25 ns flit cycle and
  has 49.2 ns of wire propagation (so up to 8 flits are in flight);
* each switch input port owns an 80-byte slack buffer running the
  hardware stop&go protocol: a *stop* control flit is sent upstream when
  occupancy crosses 56 bytes and a *go* when it falls below 40 (control
  flits also take one wire propagation to arrive);
* output ports arbitrate demand-slotted round-robin among input ports,
  pay the 150 ns routing delay per packet, then pull flits from the
  granted input buffer at link rate;
* NICs serialise injections (own messages and ITB re-injections, FIFO),
  never stop the delivery channel (ejection always proceeds -- the
  deadlock-freedom property), recognise in-transit packets 275 ns after
  the header arrives and are ready to re-inject 200 ns later; the
  re-injection DMA never outruns reception (cut-through at the NIC).
* in-transit packets are charged against the same finite NIC buffer
  pool as in the packet-level engine (:class:`~repro.sim.nic.ItbPool`):
  a packet that finds the pool full is staged through host memory,
  paying the overflow penalty before re-injection.

The engine is O(flits x hops) and therefore only used on small
networks: the validation tests compare it against the packet-level
model, bounding the error of the latter's "tail wave" approximation
(which ignores slack-buffer absorption during stalls).

Like the packet engine it is a :class:`~repro.sim.base.NetworkModel`
backend with the full capability set (link statistics, ITB pool,
tracing), so ``collect_links`` and :class:`PacketTracer` work
identically against both.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..config import MyrinetParams
from .arbiter import RoundRobinArbiter
from .base import (CAP_DYNAMIC_FAULTS, CAP_ITB_POOL, CAP_RELIABLE_DELIVERY,
                   CAP_TRACE, ItbStats, LinkChannelStats, NetworkModel)
from .engine import Simulator
from .engines import register
from .nic import ItbPool
from .packet import Packet

#: a flit in flight: (packet, leg index, first-of-leg, last-of-leg)
Flit = Tuple[Packet, int, bool, bool]


class _Wire:
    """Directed physical channel: data flits forward, control flits
    backward, both delayed by the propagation time.

    The endpoint callbacks (``_rx_receive`` / ``_tx_set_paused``) are
    bound when the endpoints are attached: per-flit sends then push a
    plain ``(fn, args)`` event instead of materialising a closure --
    this is the engine's hottest call site (one event per flit per
    hop).  ``rx`` / ``tx`` are properties so that swapping an endpoint
    (tests do this to interpose probes) rebinds the cached callback.
    """

    __slots__ = ("sim", "prop_ps", "_rx", "_tx", "flits_carried", "name",
                 "_rx_receive", "_tx_set_paused")

    def __init__(self, sim: Simulator, prop_ps: int, name: str) -> None:
        self.sim = sim
        self.prop_ps = prop_ps
        self._rx = None   # downstream receiver
        self._tx = None   # upstream transmitter
        self.flits_carried = 0
        self.name = name
        self._rx_receive = None
        self._tx_set_paused = None

    @property
    def rx(self) -> Optional["_RxBuffer"]:
        return self._rx

    @rx.setter
    def rx(self, rx) -> None:
        self._rx = rx
        self._rx_receive = None if rx is None else rx.receive

    @property
    def tx(self) -> Optional["_TxPort"]:
        return self._tx

    @tx.setter
    def tx(self, tx) -> None:
        self._tx = tx
        self._tx_set_paused = None if tx is None else tx.set_paused

    def send_flit(self, flit: Flit) -> None:
        self.flits_carried += 1
        sim = self.sim
        sim.at(sim.now + self.prop_ps, self._rx_receive, flit)

    def send_ctrl(self, stop: bool) -> None:
        sim = self.sim
        sim.at(sim.now + self.prop_ps, self._tx_set_paused, stop)


class _TxPort:
    """Base of everything that clocks flits onto a wire.

    Subclasses implement :meth:`_next_flit` returning a :data:`Flit` or
    ``None`` when nothing can be sent right now, and call :meth:`wake`
    whenever new work may have become available.
    """

    __slots__ = ("sim", "wire", "params", "paused", "_next_free_ps",
                 "_pump_scheduled", "_pump_cb")

    def __init__(self, sim: Simulator, wire: _Wire,
                 params: MyrinetParams) -> None:
        self.sim = sim
        self.wire = wire
        wire.tx = self
        self.params = params
        self.paused = False
        self._next_free_ps = 0
        self._pump_scheduled = False
        self._pump_cb = self._pump      # bound once; wake() is hot

    def set_paused(self, paused: bool) -> None:
        self.paused = paused
        if not paused:
            self.wake()

    def wake(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        sim = self.sim
        sim.at(max(sim.now, self._next_free_ps), self._pump_cb)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self.paused:
            return
        flit = self._next_flit()
        if flit is None:
            return
        self.wire.send_flit(flit)
        self._next_free_ps = self.sim.now + self.params.flit_cycle_ps
        self.wake()

    def _next_flit(self) -> Optional[Flit]:
        raise NotImplementedError


class _RxBuffer:
    """Switch input slack buffer with stop&go, or a NIC receive buffer.

    NIC buffers (``nic >= 0``) are unbounded and never send stop -- the
    in-transit/delivery DMA always drains the channel, which is exactly
    the property that makes the ITB mechanism deadlock-free.
    """

    __slots__ = ("net", "sim", "params", "wire", "switch", "nic",
                 "occupancy", "stopped", "queue", "channel_key",
                 "consumers")

    def __init__(self, net: "FlitLevelNetwork", wire: _Wire,
                 channel_key: int, switch: int = -1, nic: int = -1) -> None:
        self.net = net
        self.sim = net.sim
        self.params = net.params
        self.wire = wire
        wire.rx = self
        self.switch = switch
        self.nic = nic
        self.occupancy = 0
        self.stopped = False
        self.queue: Deque[Flit] = deque()
        self.channel_key = channel_key
        #: output ports currently pulling from this buffer (switch
        #: only).  More than one can be registered at a time: a granted
        #: header queued behind another packet's tail pulls from the
        #: same buffer as the port still streaming that tail, so wakes
        #: must reach every puller (a wake to a port whose flits are
        #: not at the front is a cheap no-op)
        self.consumers: List["_OutputPort"] = []

    def receive(self, flit: Flit) -> None:
        dropped = self.net._dropped_pids
        if dropped and flit[0].pid in dropped:
            return   # stray flit of a fault-dropped packet: vanish
        if self.nic >= 0:
            self.net._nic_flit_received(self.nic, flit)
            return
        pkt, leg_idx, first, _last = flit
        self.queue.append(flit)
        self.occupancy += 1
        if self.occupancy > self.params.slack_buffer_bytes:
            raise AssertionError(
                f"slack buffer overflow at switch {self.switch} "
                f"(stop&go failed to pace the sender)")
        if (not self.stopped
                and self.occupancy >= self.params.stop_threshold_bytes):
            self.stopped = True
            self.wire.send_ctrl(stop=True)
        if first:
            self.net._header_at_switch(self, pkt, leg_idx)
        else:
            for consumer in self.consumers:
                consumer.wake()

    def pop_for(self, pkt: Packet) -> Optional[Flit]:
        """Take the front flit if it belongs to ``pkt``."""
        if not self.queue or self.queue[0][0] is not pkt:
            return None
        flit = self.queue.popleft()
        self.occupancy -= 1
        if (self.stopped
                and self.occupancy < self.params.go_threshold_bytes):
            self.stopped = False
            self.wire.send_ctrl(stop=False)
        return flit

    def purge(self, pkt: Packet) -> None:
        """Discard every buffered flit of a fault-dropped packet,
        un-stopping the upstream sender if the drain crosses the go
        threshold."""
        if self.nic >= 0 or not self.queue:
            return
        before = len(self.queue)
        kept = [f for f in self.queue if f[0] is not pkt]
        removed = before - len(kept)
        if not removed:
            return
        self.queue = deque(kept)
        self.occupancy -= removed
        if (self.stopped
                and self.occupancy < self.params.go_threshold_bytes):
            self.stopped = False
            self.wire.send_ctrl(stop=False)
        # the purge may have exposed another packet's flits at the
        # front; its granted port would otherwise sleep forever
        for consumer in self.consumers:
            consumer.wake()

    def reset_stats(self) -> None:  # occupancy is state, nothing to reset
        pass


class _OutputPort(_TxPort):
    """Switch output port: RR arbitration + routing delay + pull loop."""

    __slots__ = ("net", "node", "arbiter", "packet", "src_buffer",
                 "granted_ps", "reserved_ps", "dead")

    def __init__(self, net: "FlitLevelNetwork", node: int,
                 wire: _Wire) -> None:
        super().__init__(net.sim, wire, net.params)
        self.net = net
        #: switch this port belongs to (trace "grant" location)
        self.node = node
        self.arbiter = RoundRobinArbiter()
        self.packet: Optional[Packet] = None
        self.src_buffer: Optional[_RxBuffer] = None
        self.granted_ps = 0
        self.reserved_ps = 0
        #: link died mid-run; headers drop instead of requesting
        self.dead = False

    def request(self, buf: _RxBuffer, pkt: Packet, leg_idx: int) -> None:
        arb = self.arbiter
        if arb.take(buf.channel_key, pkt):
            self._granted(buf, pkt, leg_idx)
        else:
            arb.enqueue(buf.channel_key, pkt, self._granted,
                        (buf, pkt, leg_idx))

    def _granted(self, buf: _RxBuffer, pkt: Packet, leg_idx: int) -> None:
        self.packet = pkt
        self.src_buffer = buf
        if self not in buf.consumers:
            buf.consumers.append(self)
        self.granted_ps = self.sim.now
        if self.net._tracer is not None:
            self.net._trace("grant", pkt.pid, self.node, leg_idx)
        # first flit pays the routing decision latency
        self._next_free_ps = max(self._next_free_ps,
                                 self.sim.now + self.params.routing_delay_ps)
        self.wake()

    def _next_flit(self) -> Optional[Flit]:
        if self.packet is None or self.src_buffer is None:
            return None
        flit = self.src_buffer.pop_for(self.packet)
        if flit is None:
            return None
        if flit[3]:  # last flit of the packet on this port
            self._release()
        return flit

    def _release(self) -> None:
        pkt = self.packet
        assert pkt is not None and self.src_buffer is not None
        # clamp to the last stats reset: a grant that predates the
        # measurement window only reserved the port inside the window
        self.reserved_ps += self.sim.now - max(self.granted_ps,
                                               self.net._stats_reset_ps)
        if self in self.src_buffer.consumers:
            self.src_buffer.consumers.remove(self)
        self.packet = None
        self.src_buffer = None
        self.arbiter.release(pkt)

    def force_release(self, pkt: Packet) -> None:
        """Release mid-stream: the owner was dropped by a link fault."""
        assert self.packet is pkt
        self.reserved_ps += self.sim.now - max(self.granted_ps,
                                               self.net._stats_reset_ps)
        if (self.src_buffer is not None
                and self in self.src_buffer.consumers):
            self.src_buffer.consumers.remove(self)
        self.packet = None
        self.src_buffer = None
        self.arbiter.release(pkt)


class _NicInjector(_TxPort):
    """NIC send side: FIFO of pending sends, cut-through aware."""

    __slots__ = ("net", "host", "jobs")

    def __init__(self, net: "FlitLevelNetwork", host: int,
                 wire: _Wire) -> None:
        super().__init__(net.sim, wire, net.params)
        self.net = net
        self.host = host
        #: FIFO of [pkt, leg_idx, flits_sent]
        self.jobs: Deque[List] = deque()

    def enqueue(self, pkt: Packet, leg_idx: int) -> None:
        dropped = self.net._dropped_pids
        if dropped and pkt.pid in dropped:
            return   # ITB detect fired after the packet was dropped
        self.jobs.append([pkt, leg_idx, 0])
        self.wake()

    def _next_flit(self) -> Optional[Flit]:
        while self.jobs:
            job = self.jobs[0]
            pkt, leg_idx, sent = job
            wire_len = pkt.wire_bytes(leg_idx)
            if sent >= wire_len:
                self.jobs.popleft()
                if leg_idx > 0:
                    self.net._itb_done(pkt, leg_idx - 1, self.host)
                continue
            if leg_idx > 0:
                # re-injection must not outrun reception of the
                # previous leg (cut-through at the NIC)
                received = self.net._itb_received(pkt, leg_idx - 1)
                if sent >= received:
                    return None  # woken by the next received flit
            job[2] = sent + 1
            first = sent == 0
            last = sent + 1 >= wire_len
            if first:
                if leg_idx == 0 and pkt.injected_ps is None:
                    pkt.injected_ps = self.sim.now
                self.net._trace("inject" if leg_idx == 0 else "reinject",
                                pkt.pid, self.host, leg_idx)
            return pkt, leg_idx, first, last
        return None


@register("flit")
class FlitLevelNetwork(NetworkModel):
    """Flit-accurate counterpart of
    :class:`~repro.sim.network.WormholeNetwork` (same
    :class:`~repro.sim.base.NetworkModel` surface and capability set)."""

    CAPABILITIES = frozenset({CAP_ITB_POOL, CAP_TRACE, CAP_DYNAMIC_FAULTS,
                              CAP_RELIABLE_DELIVERY})

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        g = self.graph
        p = self.params
        sim = self.sim
        #: pids dropped by dynamic link faults: their stray flits and
        #: delayed ITB events are discarded on sight
        self._dropped_pids: set = set()
        #: link id -> the cable's two (wire, output port) directions
        self._link_ports: Dict[int, List[Tuple[_Wire, _OutputPort]]] = {}
        self._out_ports: Dict[Tuple, _OutputPort] = {}
        self._injectors: List[_NicInjector] = []
        self._wires: List[_Wire] = []
        #: per directed inter-switch channel: (wire, port, src, dst, link)
        self._net_channels: List[Tuple[_Wire, _OutputPort, int, int, int]] = []
        #: per host: finite in-transit buffer pool (same accounting as
        #: the packet engine's NICs)
        self._itb_pools: List[ItbPool] = []
        #: per (pid, leg): flits of that leg received at its ITB host
        self._itb_rx: Dict[Tuple[int, int], int] = {}
        #: id(leg) -> (leg, {switch: output port | None for the leg's
        #: last switch}); resolved once per route leg instead of
        #: scanning leg.switches per arriving header (the leg reference
        #: keeps the key's object alive -- no id() reuse)
        self._leg_ports: Dict[int, Tuple[object,
                                         Dict[int,
                                              Optional[_OutputPort]]]] = {}
        #: delivery output port per host id
        self._dlv_ports: List[_OutputPort] = []
        #: end-of-warm-up timestamp (clamps in-progress reservations)
        self._stats_reset_ps = 0
        key = 0

        def wire(name: str) -> _Wire:
            w = _Wire(sim, p.link_prop_ps, name)
            self._wires.append(w)
            return w

        for link in g.links:
            dirs = self._link_ports[link.id] = []
            for frm, to in ((link.a, link.b), (link.b, link.a)):
                w = wire(f"net{link.id}:{frm}->{to}")
                port = _OutputPort(self, frm, w)
                self._out_ports[(frm, to)] = port
                self._net_channels.append((w, port, frm, to, link.id))
                dirs.append((w, port))
                _RxBuffer(self, w, channel_key=key, switch=to)
                key += 1
        for host in g.hosts:
            w_in = wire(f"inj{host.id}")
            self._injectors.append(_NicInjector(self, host.id, w_in))
            _RxBuffer(self, w_in, channel_key=key, switch=host.switch)
            key += 1
            w_out = wire(f"dlv{host.id}")
            dlv = _OutputPort(self, host.switch, w_out)
            self._out_ports[("dlv", host.id)] = dlv
            assert len(self._dlv_ports) == host.id
            self._dlv_ports.append(dlv)
            _RxBuffer(self, w_out, channel_key=key, nic=host.id)
            key += 1
            self._itb_pools.append(ItbPool(host.id))

    # -- NetworkModel contract ---------------------------------------------

    def _inject(self, pkt: Packet) -> None:
        self._injectors[pkt.src_host].enqueue(pkt, 0)

    def _close_engine(self) -> None:
        # every port, injector and buffer hangs off one end of a wire,
        # points back at it (and at this network), and a port keeps
        # its own bound pump; a buffer lists the granted ports pulling
        # from it, and queued grant requests hold bound methods of
        # their port
        for w in self._wires:
            tx, rx = w.tx, w.rx
            tx.net = rx.net = tx._pump_cb = None
            rx.consumers.clear()
            w.tx = w.rx = None
        for port in self._out_ports.values():
            port.arbiter.cancel_waiting()

    def _reset_engine_stats(self) -> None:
        for w in self._wires:
            w.flits_carried = 0
        for port in self._out_ports.values():
            port.reserved_ps = 0
        for pool in self._itb_pools:
            pool.reset_stats()
        self._stats_reset_ps = self.sim.now

    def link_flit_counts(self) -> List[LinkChannelStats]:
        out = []
        for w, port, src, dst, link_id in self._net_channels:
            reserved = port.reserved_ps
            if port.packet is not None:
                # count the in-progress reservation up to the snapshot,
                # clamped to the measurement window
                reserved += self.sim.now - max(port.granted_ps,
                                               self._stats_reset_ps)
            out.append(LinkChannelStats(src, dst, link_id,
                                        w.flits_carried, reserved))
        return out

    def itb_stats(self) -> ItbStats:
        return ItbStats(
            peak_bytes=max((p.itb_peak_bytes for p in self._itb_pools),
                           default=0),
            overflow_count=sum(p.itb_overflows for p in self._itb_pools),
            packets=sum(p.itb_packets for p in self._itb_pools))

    # -- internal event handlers -------------------------------------------

    def _leg_port_map(self, leg) -> Dict[int, Optional[_OutputPort]]:
        """switch -> next output port for ``leg``, resolved once per leg
        (``None`` marks the last switch: delivery is per-packet)."""
        entry = self._leg_ports.get(id(leg))
        if entry is not None:
            return entry[1]
        sws = leg.switches
        ports: Dict[int, Optional[_OutputPort]] = {
            sw: self._out_ports[(sw, sws[i + 1])]
            for i, sw in enumerate(sws[:-1])}
        ports[sws[-1]] = None
        self._leg_ports[id(leg)] = (leg, ports)
        return ports

    def _header_at_switch(self, buf: _RxBuffer, pkt: Packet,
                          leg_idx: int) -> None:
        leg = pkt.route.legs[leg_idx]
        port = self._leg_port_map(leg)[buf.switch]
        if port is None:
            port = self._dlv_ports[self._leg_target_host(pkt, leg_idx)]
        elif port.dead:
            # the route crosses a link that died after selection: the
            # worm is stranded at this switch and drops
            self._drop_packet(pkt)
            return
        port.request(buf, pkt, leg_idx)

    def _itb_received(self, pkt: Packet, leg_idx: int) -> int:
        return self._itb_rx.get((pkt.pid, leg_idx), 0)

    def _itb_done(self, pkt: Packet, leg_idx: int, host: int) -> None:
        """Re-injection of the leg after ``leg_idx`` fully left ``host``:
        drop the cut-through counter and credit the buffer pool."""
        self._itb_rx.pop((pkt.pid, leg_idx), None)
        self._itb_pools[host].itb_release(pkt.wire_bytes(leg_idx))

    # -- runtime invariants ------------------------------------------------

    def _port_name(self, key) -> str:
        if key[0] == "dlv":
            return f"dlv ->host {key[1]}"
        return f"net {key[0]}->{key[1]}"

    def _audit_engine(self, check) -> None:
        now = self.sim.now
        slack = self.params.slack_buffer_bytes
        for key, port in self._out_ports.items():
            name = self._port_name(key)
            arb = port.arbiter
            check(arb.waiting() == len(arb.waiting_tokens()),
                  f"port {name}: waiting count out of sync with queues")
            check(arb.owner is not None or arb.waiting() == 0,
                  f"port {name}: requests queued on a free arbiter")
            check((port.packet is None) == (arb.owner is None)
                  and (port.packet is None or arb.owner is port.packet),
                  f"port {name}: port/arbiter owner disagreement")
            check(0 <= port.reserved_ps
                  <= max(0, now - self._stats_reset_ps),
                  f"port {name}: reserved {port.reserved_ps} ps outside "
                  f"the {max(0, now - self._stats_reset_ps)} ps window")
        for w in self._wires:
            buf = w.rx
            if buf is None:
                continue
            check(buf.occupancy == len(buf.queue),
                  f"buffer at {w.name}: occupancy {buf.occupancy} != "
                  f"{len(buf.queue)} queued flits")
            if buf.nic < 0:       # switch slack buffers are bounded
                check(0 <= buf.occupancy <= slack,
                      f"buffer at {w.name}: occupancy {buf.occupancy} "
                      f"outside [0, {slack}]")
            check(w.flits_carried >= 0,
                  f"wire {w.name}: negative flit count")
        for pool in self._itb_pools:
            check(pool.itb_bytes >= 0,
                  f"host {pool.host}: negative ITB pool occupancy")
            check(pool.itb_peak_bytes >= pool.itb_bytes,
                  f"host {pool.host}: ITB peak below current occupancy")
        for (pid, leg), flits in self._itb_rx.items():
            check(flits >= 0,
                  f"pid {pid} leg {leg}: negative ITB reception count")

    def _audit_drained(self, check) -> None:
        for key, port in self._out_ports.items():
            check(port.packet is None and port.arbiter.waiting() == 0,
                  f"drained: port {self._port_name(key)} still owned or "
                  "waited on")
        for w in self._wires:
            if w.rx is not None:
                check(w.rx.occupancy == 0,
                      f"drained: buffer at {w.name} holds "
                      f"{w.rx.occupancy} flits")
        for inj in self._injectors:
            check(not inj.jobs,
                  f"drained: host {inj.host} injector has "
                  f"{len(inj.jobs)} queued jobs")
        for pool in self._itb_pools:
            check(pool.itb_bytes == 0,
                  f"drained: host {pool.host} ITB pool holds "
                  f"{pool.itb_bytes} bytes")
        check(not self._itb_rx,
              f"drained: {len(self._itb_rx)} ITB receptions in progress")

    def _stall_snapshot(self) -> Dict:
        owners, wait_for, blocked = [], [], {}
        for key, port in self._out_ports.items():
            arb = port.arbiter
            if port.packet is None and arb.waiting() == 0:
                continue
            name = self._port_name(key)
            waiters = arb.waiting_tokens()
            owners.append({
                "channel": name,
                "owner": getattr(port.packet, "pid", None),
                "waiters": [t.pid for t in waiters],
                "stopped_upstream": (port.src_buffer.stopped
                                     if port.src_buffer is not None
                                     else False)})
            for pkt in waiters:
                blocked.setdefault(pkt.pid, (pkt, name))
                wait_for.append({
                    "waiter": pkt.pid,
                    "channel": name,
                    "owner": getattr(port.packet, "pid", None)})
        worms = [{
            "pid": pid,
            "src": pkt.src_host, "dst": pkt.dst_host,
            "route_legs": [list(leg.switches) for leg in pkt.route.legs],
            "waits_on": name}
            for pid, (pkt, name) in sorted(blocked.items())]
        backlog = {inj.host: len(inj.jobs)
                   for inj in self._injectors if inj.jobs}
        return {"blocked_worms": worms, "channel_owners": owners,
                "wait_for": wait_for, "injector_backlog": backlog}

    # -- dynamic faults ----------------------------------------------------

    def _kill_link(self, link_id: int) -> None:
        """Both directions of the cable die now.

        Dead-port waiters are drained before owners are force-released,
        so no release can grant a dead port to a stale requester.  Any
        packet still occupying the cable (flits queued behind it,
        owning either direction, or waiting for it) is dropped whole --
        at flit fidelity a truncated tail means the packet is lost.
        """
        for w, port in self._link_ports[link_id]:
            port.dead = True
        for w, port in self._link_ports[link_id]:
            for tok in port.arbiter.cancel_waiting():
                self._drop_packet(tok)
            if port.packet is not None:
                self._drop_packet(port.packet)

    def _drop_packet(self, pkt: Packet) -> None:
        """Remove every trace of a stranded packet from the fabric."""
        if pkt.pid in self._dropped_pids or pkt.delivered:
            return
        self._dropped_pids.add(pkt.pid)
        # pending sends / re-injections at any NIC
        for injector in self._injectors:
            jobs = injector.jobs
            if any(job[0] is pkt for job in jobs):
                injector.jobs = deque(
                    job for job in jobs if job[0] is not pkt)
        # output ports: force-release where it streams, dequeue where
        # it waits (releases wake the next waiter on live ports)
        for port in self._out_ports.values():
            if port.packet is pkt:
                port.force_release(pkt)
            elif port.arbiter.waiting():
                port.arbiter.cancel(pkt)
        # buffered flits in switch slack buffers (un-stops senders)
        for w in self._wires:
            rx = w.rx
            if rx is not None:
                rx.purge(pkt)
        # in-transit bookkeeping: credit the pool for every leg still
        # being received (admit happened with the leg's first flit)
        for key in [k for k in self._itb_rx if k[0] == pkt.pid]:
            del self._itb_rx[key]
            host = pkt.route.itb_hosts[key[1]]
            self._itb_pools[host].itb_release(pkt.wire_bytes(key[1]))
        self._finish_drop(pkt, self.sim.now)

    def _nic_flit_received(self, nic: int, flit: Flit) -> None:
        pkt, leg_idx, first, last = flit
        if leg_idx == pkt.num_legs - 1:
            if last:
                self._finish_delivery(pkt, self.sim.now)
            return
        # in-transit: count availability for the cut-through re-injection
        key = (pkt.pid, leg_idx)
        self._itb_rx[key] = self._itb_rx.get(key, 0) + 1
        injector = self._injectors[nic]
        if first:
            self._trace("eject", pkt.pid, nic, leg_idx)
            # the arriving leg's bytes occupy the pool until the
            # re-injected tail has left (same model as the packet
            # engine); a full pool stages through host memory
            fits = self._itb_pools[nic].itb_admit(
                pkt.wire_bytes(leg_idx), self.params.itb_pool_bytes)
            delay = self.params.itb_detect_ps + self.params.itb_dma_setup_ps
            if not fits:
                pkt.itb_overflows += 1
                delay += self.params.itb_overflow_penalty_ps
            self.sim.after(delay, injector.enqueue, pkt, leg_idx + 1)
        else:
            injector.wake()
