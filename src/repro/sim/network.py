"""Packet-level wormhole network model (the paper-scale engine).

The model follows Myrinet cut-through switching without virtual
channels (Sections 4.3--4.5):

* A packet acquires directed channels hop by hop.  Output ports are
  granted by demand-slotted round-robin arbiters; a granted header pays
  the 150 ns routing delay, then the head moves one cable (49.2 ns) to
  the next switch.  While the head waits for a busy port, every channel
  already acquired stays held -- the defining wormhole blocking
  behaviour (slack buffers are far smaller than the 512-byte packets).
* Once the head reaches a NIC (destination or in-transit host) no
  further stalls are possible, so the worm streams at link rate: the
  tail reaches the NIC ``wire_bytes`` flit cycles after the head, and it
  passes earlier channels one cable-propagation earlier per hop.  This
  "tail wave" is the only approximation versus the flit-level engine
  (:mod:`repro.sim.flitlevel`): absorption into the 80-byte slack
  buffers during intermediate stalls is ignored, which *overestimates*
  channel hold times by up to one slack buffer per hop for every
  routing algorithm alike (quantified in the validation tests).
* At an in-transit host the packet is fully ejected (ejection never
  blocks -- this is what breaks the down->up channel dependencies and
  makes the scheme deadlock-free), recognised after 275 ns, and its
  re-injection DMA is ready 200 ns later; it then competes for the
  NIC's injection channel like any locally generated packet.

Deliberately *mis-routed* configurations (e.g. minimal routing on a
torus without ITBs) can deadlock; a progress watchdog turns that into a
:class:`~repro.sim.engine.DeadlockError` instead of a hang, and tests
exercise exactly that.

Everything engine-independent (message creation, route selection,
delivery callbacks, the watchdog itself) lives in
:class:`~repro.sim.base.NetworkModel`; this module implements only the
wormhole timing model.

The hot path follows the simulator's contract
(:mod:`repro.sim.engine`): an uncontended hop is one push of ``(t,
next_seq(), fn, args)`` onto ``sim.heap``, and every request goes
through one request body (:meth:`WormholeNetwork._head_at`) and every
grant, immediate or queued, traced or not, through one grant body
(:meth:`WormholeNetwork._granted`).  A channel release that nobody
waits for when the tail wave computes it is not scheduled: it reserves
its sequence number and stays on the channel
(:attr:`~repro.sim.channel.Channel.deferred`) until something reads or
requests the channel, which *settles* it -- applies it if it would
already have run, else pushes the event with the reserved number
(:meth:`WormholeNetwork._settle`).  Releases that credit an in-transit
pool, or that a queued request waits for, stay events.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Dict, List, Tuple

from .base import (CAP_DYNAMIC_FAULTS, CAP_ITB_POOL, CAP_RELIABLE_DELIVERY,
                   CAP_TRACE, ItbStats, LinkChannelStats, NetworkModel)
from .channel import Channel, DEL, INJ, KIND_NAMES, NET
from .engines import register
from .nic import Nic
from .packet import Packet


class _LegTransit:
    """Mutable per-leg traversal state of one packet."""

    __slots__ = ("pkt", "leg_idx", "wire", "holds", "pool_host",
                 "pool_bytes", "short", "tail_cross_ps", "dirs", "dropped",
                 "pending")

    def __init__(self, pkt: Packet, leg_idx: int, wire: int,
                 pool_host: int = -1, pool_bytes: int = 0,
                 short: bool = False) -> None:
        self.pkt = pkt
        self.leg_idx = leg_idx
        #: flits on the wire during this leg
        self.wire = wire
        #: directed-channel index per hop of the leg (the leg itself, in
        #: the store form of :mod:`repro.routing.routes`; the delivery
        #: channel is per-packet and resolved at the last hop)
        self.dirs: Tuple[int, ...] = ()
        #: channels still held and whose release is not yet scheduled
        #: or deferred: (channel, grant_time_ps).  Scheduling or
        #: deferring a release removes its entry, so a dynamic-fault
        #: drop releases exactly the complement -- never a channel
        #: twice.
        self.holds: List[Tuple[Channel, int]] = []
        #: NIC whose in-transit pool must be credited when the
        #: injection channel of this leg is released (-1 = none);
        #: captured-and-cleared when that release is scheduled so a
        #: drop can credit it at most once
        self.pool_host = pool_host
        self.pool_bytes = pool_bytes
        #: packet fits in one slack buffer -> virtual-cut-through regime
        self.short = short
        #: time the tail crossed the most recently granted channel
        #: (short regime only; drives early upstream releases)
        self.tail_cross_ps = 0
        #: killed by a dynamic link fault (stale scheduled events bail)
        self.dropped = False
        #: arbiter holding this transit's one queued (ungranted)
        #: request, if any -- cancelled on drop
        self.pending = None


@register("packet")
class WormholeNetwork(NetworkModel):
    """Wires a topology + routing tables into a running simulation."""

    CAPABILITIES = frozenset({CAP_ITB_POOL, CAP_TRACE, CAP_DYNAMIC_FAULTS,
                              CAP_RELIABLE_DELIVERY})

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        sim, params = self.sim, self.params
        #: the simulator's event list and sequence counter (hot path)
        self._events = sim.heap
        self._next_seq = sim.next_seq
        self._prop_ps = params.link_prop_ps
        self._flit_cycle_ps = params.flit_cycle_ps
        self._slack_bytes = params.slack_buffer_bytes
        #: a granted header's routing decision plus one cable
        self._hop_ps = params.routing_delay_ps + params.link_prop_ps
        #: pid -> transit whose header is still progressing (removed
        #: once the header commits at its leg-target NIC); the dynamic
        #: fault path walks this to find worms stranded on a dead link
        self._active: Dict[int, _LegTransit] = {}
        self.channels: List[Channel] = []
        #: (link_id, 0 for a->b / 1 for b->a) -> NET channel
        self._net: Dict[Tuple[int, int], Channel] = {}
        #: NET channel by directed-hop index ``link_id << 1 | dir``
        #: (the hops a store-form leg is made of)
        self._net_by_dir: List[Channel] = []
        self.nics: List[Nic] = []
        g = self.graph
        for link in g.links:
            fwd = self._new_channel(NET, link.a, link.b, link.id)
            rev = self._new_channel(NET, link.b, link.a, link.id)
            self._net[(link.id, 0)] = fwd
            self._net[(link.id, 1)] = rev
            self._net_by_dir.append(fwd)     # index link.id << 1
            self._net_by_dir.append(rev)     # index link.id << 1 | 1
        for host in g.hosts:
            inj = self._new_channel(INJ, host.id, host.switch)
            dlv = self._new_channel(DEL, host.switch, host.id)
            self.nics.append(Nic(host.id, host.switch, inj, dlv))

    def _close_engine(self) -> None:
        # requests still queued at a saturated run's end carry bound
        # grant callbacks of this network
        for ch in self.channels:
            if ch.arbiter.nwaiting:
                ch.arbiter.cancel_waiting()

    def _new_channel(self, kind: int, src: int, dst: int,
                     link_id: int = -1) -> Channel:
        ch = Channel(len(self.channels), kind, src, dst, link_id)
        self.channels.append(ch)
        return ch

    # -- NetworkModel contract ---------------------------------------------

    def _inject(self, pkt: Packet) -> None:
        self._start_leg(pkt, 0, self.sim.now)

    def _reset_engine_stats(self) -> None:
        self._settle_all()
        now = self.sim.now
        for ch in self.channels:
            ch.reset_stats(now)
        for nic in self.nics:
            nic.reset_stats()

    def link_flit_counts(self) -> List[LinkChannelStats]:
        self._settle_all()
        return [LinkChannelStats(ch.src, ch.dst, ch.link_id,
                                 ch.transfer_flits, ch.reserved_ps)
                for ch in self.channels if ch.kind == NET]

    def itb_stats(self) -> ItbStats:
        return ItbStats(
            peak_bytes=max((nic.itb_peak_bytes for nic in self.nics),
                           default=0),
            overflow_count=sum(nic.itb_overflows for nic in self.nics),
            packets=sum(nic.itb_packets for nic in self.nics))

    # -- packet progression ---------------------------------------------------

    def _start_leg(self, pkt: Packet, leg_idx: int, t_ready: int,
                   pool_host: int = -1, pool_bytes: int = 0) -> None:
        """Queue the packet for (re-)injection at ``t_ready``."""
        wire = pkt._leg_wire_bytes[leg_idx]
        transit = _LegTransit(pkt, leg_idx, wire, pool_host, pool_bytes,
                              wire <= self._slack_bytes)
        transit.dirs = pkt.route[2 + leg_idx]
        self._active[pkt.pid] = transit
        if t_ready <= self.sim.now:
            self._head_at(transit, -1)
        else:
            _heappush(self._events, (t_ready, self._next_seq(),
                                     self._head_at, (transit, -1)))

    def _head_at(self, transit: _LegTransit, pos: int) -> None:
        """The header requests the next channel of its leg: at ``pos``
        -1 the NIC's injection channel, at ``0 .. len(dirs) - 1`` the
        output port of that hop's switch, at ``len(dirs)`` the leg
        target's delivery channel.  Output ports are arbitrated
        demand-slotted round-robin per input port."""
        if transit.dropped:
            return
        pkt = transit.pkt
        if pos < 0:
            host = (pkt.src_host if transit.leg_idx == 0
                    else pkt.route[1][transit.leg_idx - 1])
            out = self.nics[host].inj
            key = 0
        else:
            dirs = transit.dirs
            if pos == len(dirs):          # past the last NET hop
                itb_hosts = pkt.route[1]
                leg_idx = transit.leg_idx
                out = self.nics[itb_hosts[leg_idx]
                                if leg_idx < len(itb_hosts)
                                else pkt.dst_host].dlv
            else:
                out = self._net_by_dir[dirs[pos]]
                if out.dead:
                    # header ran into a link that died after the route
                    # was selected: the worm is stranded and drops here
                    self._drop_transit(transit)
                    return
            key = transit.holds[-1][0].cid
        if out.deferred is not None:
            self._settle(out)
        arb = out.arbiter
        if arb.take(key, pkt):
            self._granted(transit, pos, out)
        else:
            arb.enqueue(key, pkt, self._granted, (transit, pos, out))
            transit.pending = arb

    def _granted(self, transit: _LegTransit, pos: int,
                 out: Channel) -> None:
        """The one grant body: ``transit`` owns ``out`` from now on.
        Called directly on an immediate grant and by the arbiter on a
        queued one; ``pos`` is as for :meth:`_head_at`."""
        g = self.sim.now
        transit.pending = None
        transit.holds.append((out, g))
        pkt = transit.pkt
        if pos < 0:
            if transit.leg_idx == 0 and pkt.injected_ps is None:
                pkt.injected_ps = g
            if self._tracer is not None:
                self._trace("inject" if transit.leg_idx == 0
                            else "reinject", pkt.pid, out.src,
                            transit.leg_idx)
            if transit.short:
                # whole packet leaves the NIC wire-length flit cycles
                # later
                transit.tail_cross_ps = (
                    g + transit.wire * self._flit_cycle_ps)
            _heappush(self._events, (g + self._prop_ps, self._next_seq(),
                                     self._head_at, (transit, 0)))
            return
        if self._tracer is not None:
            self._trace("grant", pkt.pid, out.src, transit.leg_idx)
        if transit.short:
            # virtual-cut-through regime: the whole packet fits in the
            # slack buffer just vacated, so the channel *behind* it can
            # be released as soon as the tail has drained forward --
            # the tail crosses this channel once the head may stream
            # (after routing) and the upstream buffer has emptied.
            # Scheduling the release removes the hold (and captures the
            # pool credit, which belongs to the first-released channel:
            # the leg's injection channel) so a later drop releases
            # only what is still unscheduled.
            wire = transit.wire
            cross = max(transit.tail_cross_ps + self._prop_ps,
                        g + self.params.routing_delay_ps
                        + wire * self._flit_cycle_ps)
            transit.tail_cross_ps = cross
            prev_ch, prev_g = transit.holds[0]
            pool_host, pool_bytes = transit.pool_host, transit.pool_bytes
            transit.pool_host = -1
            self._release_at(prev_ch, pkt, wire, prev_g, cross,
                             pool_host, pool_bytes)
            del transit.holds[0]
        if out.kind == NET:
            _heappush(self._events, (g + self._hop_ps, self._next_seq(),
                                     self._head_at, (transit, pos + 1)))
        else:
            _heappush(self._events, (g + self._hop_ps, self._next_seq(),
                                     self._head_at_nic, (transit,)))

    def _head_at_nic(self, transit: _LegTransit) -> None:
        """Header fully at the leg's target NIC; compute the tail wave,
        release the channels, and deliver or forward."""
        if transit.dropped:
            return
        pkt = transit.pkt
        params = self.params
        t_head = self.sim.now
        wire = transit.wire
        holds = transit.holds
        n = len(holds)
        prop = self._prop_ps
        # the cut-through transfer is committed: the tail streams out
        # even if a link on the path dies from here on, so the transit
        # leaves the active (droppable) set and its remaining releases
        # are all settled below
        self._active.pop(pkt.pid, None)

        if transit.short:
            # virtual-cut-through regime: every channel but the last was
            # already released as the tail drained forward; only the
            # final (delivery) channel remains (its grant consumed the
            # pool credit already -- pool_host is -1 here).
            t_tail = transit.tail_cross_ps + prop
            ch, g = holds[0]
            self._release_at(ch, pkt, wire, g, t_tail, transit.pool_host,
                             transit.pool_bytes)
        else:
            # wormhole regime: the worm held its whole path; the tail
            # wave sweeps the releases from source to NIC, one cable
            # apart (the _release_at rule, inlined: one call per
            # channel saved on every packet)
            transfer = wire * self._flit_cycle_ps
            t_tail = t_head + transfer
            wave = t_tail - (n - 1) * prop
            pool_host, pool_bytes = transit.pool_host, transit.pool_bytes
            events, next_seq = self._events, self._next_seq
            for ch, g in holds:
                rel = max(wave, g + transfer, t_head)
                wave += prop
                if pool_host >= 0 or ch.arbiter.nwaiting:
                    _heappush(events, (
                        rel, next_seq(), self._do_release,
                        (ch, pkt, wire, g, rel, pool_host, pool_bytes)))
                else:
                    ch.deferred = (rel, next_seq(), pkt, wire, g)
                pool_host = -1
        transit.pool_host = -1
        transit.holds = []

        if transit.leg_idx == len(pkt.route[1]):   # last leg
            _heappush(self._events, (t_tail, self._next_seq(),
                                     self._finish_delivery, (pkt, t_tail)))
        else:
            host = pkt.route[1][transit.leg_idx]
            if self._tracer is not None:
                self._trace("eject", pkt.pid, host, transit.leg_idx,
                            t_ps=t_head)
            nic = self.nics[host]
            fits = nic.itb_admit(wire, params.itb_pool_bytes)
            t_ready = t_head + params.itb_detect_ps + params.itb_dma_setup_ps
            if not fits:
                pkt.itb_overflows += 1
                t_ready += params.itb_overflow_penalty_ps
            self._start_leg(pkt, transit.leg_idx + 1, t_ready,
                            pool_host=host, pool_bytes=wire)

    # -- channel releases --------------------------------------------------

    def _release_at(self, ch: Channel, pkt: Packet, wire: int,
                    granted: int, rel: int, pool_host: int,
                    pool_bytes: int) -> None:
        """Release ``ch`` at ``rel``: an event when the release credits
        an in-transit pool or grants a queued request, otherwise
        deferred on the channel under the sequence number the event
        would have drawn."""
        if pool_host >= 0 or ch.arbiter.nwaiting:
            _heappush(self._events, (
                rel, self._next_seq(), self._do_release,
                (ch, pkt, wire, granted, rel, pool_host, pool_bytes)))
        else:
            ch.deferred = (rel, self._next_seq(), pkt, wire, granted)

    def _do_release(self, ch: Channel, pkt: Packet, wire: int,
                    granted: int, rel: int, pool_host: int,
                    pool_bytes: int) -> None:
        ch.record_passage(wire, granted, rel, self._flit_cycle_ps)
        if pool_host >= 0:
            self.nics[pool_host].itb_release(pool_bytes)
        ch.arbiter.release(pkt)

    def _settle(self, ch: Channel) -> None:
        """Resolve ``ch``'s deferred release before anyone reads or
        requests the channel: apply it now if its reserved ``(t, seq)``
        is already past, else schedule it under that ``(t, seq)`` --
        either way exactly when its event would have run."""
        rel, seq, pkt, wire, granted = ch.deferred
        ch.deferred = None
        sim = self.sim
        if (rel, seq) < (sim.now, sim.cur_seq):
            # _do_release without a pool credit, one call less: most
            # requests settle the release of the channel's last owner
            ch.record_passage(wire, granted, rel, self._flit_cycle_ps)
            ch.arbiter.release(pkt)
        else:
            _heappush(self._events, (rel, seq, self._do_release,
                                     (ch, pkt, wire, granted, rel, -1, 0)))

    def _settle_all(self) -> None:
        """Settle every deferred release (before a whole-fabric read)."""
        for ch in self.channels:
            if ch.deferred is not None:
                self._settle(ch)

    # -- runtime invariants --------------------------------------------------

    def _channel_name(self, ch: Channel) -> str:
        tag = f" link {ch.link_id}" if ch.link_id >= 0 else ""
        return f"{KIND_NAMES[ch.kind]} {ch.src}->{ch.dst}{tag}"

    def _audit_engine(self, check) -> None:
        self._settle_all()
        now = self.sim.now
        for ch in self.channels:
            arb = ch.arbiter
            name = self._channel_name(ch)
            check(arb.waiting() == len(arb.waiting_tokens()),
                  f"channel {name}: waiting count out of sync with queues")
            check(arb.owner is not None or arb.waiting() == 0,
                  f"channel {name}: requests queued on a free arbiter")
            check(ch.transfer_flits >= 0,
                  f"channel {name}: negative flit count")
            check(0 <= ch.reserved_ps <= max(0, now - ch.last_reset_ps),
                  f"channel {name}: reserved {ch.reserved_ps} ps outside "
                  f"the {max(0, now - ch.last_reset_ps)} ps window")
        held_pool: Dict[int, int] = {}
        for pid, tr in self._active.items():
            check(not tr.dropped, f"pid {pid}: dropped transit in _active")
            for ch, _g in tr.holds:
                check(ch.arbiter.owner is tr.pkt,
                      f"pid {pid}: holds {self._channel_name(ch)} whose "
                      "arbiter names a different owner")
            if tr.pending is not None:
                check(any(t is tr.pkt
                          for t in tr.pending.waiting_tokens()),
                      f"pid {pid}: pending arbiter lost its request")
            if tr.pool_host >= 0:
                held_pool[tr.pool_host] = (held_pool.get(tr.pool_host, 0)
                                           + tr.pool_bytes)
        for nic in self.nics:
            check(nic.itb_bytes >= 0,
                  f"host {nic.host}: negative ITB pool occupancy")
            check(nic.itb_peak_bytes >= nic.itb_bytes,
                  f"host {nic.host}: ITB peak below current occupancy")
            check(held_pool.get(nic.host, 0) <= nic.itb_bytes,
                  f"host {nic.host}: active transits reserve "
                  f"{held_pool.get(nic.host, 0)} ITB bytes but the pool "
                  f"accounts only {nic.itb_bytes}")

    def _audit_drained(self, check) -> None:
        self._settle_all()
        check(not self._active,
              f"drained: {len(self._active)} transits still active")
        for ch in self.channels:
            check(ch.arbiter.owner is None and ch.arbiter.waiting() == 0,
                  f"drained: channel {self._channel_name(ch)} still owned "
                  "or waited on")
        for nic in self.nics:
            check(nic.itb_bytes == 0,
                  f"drained: host {nic.host} ITB pool holds "
                  f"{nic.itb_bytes} bytes")

    def _stall_snapshot(self) -> Dict:
        self._settle_all()
        arb_channel = {id(ch.arbiter): ch for ch in self.channels}
        owners = []
        for ch in self.channels:
            arb = ch.arbiter
            if arb.owner is None and arb.waiting() == 0:
                continue
            owners.append({
                "channel": self._channel_name(ch),
                "owner": getattr(arb.owner, "pid", None),
                "waiters": [getattr(t, "pid", None)
                            for t in arb.waiting_tokens()]})
        worms, wait_for = [], []
        for pid, tr in sorted(self._active.items()):
            pkt = tr.pkt
            entry = {
                "pid": pid,
                "src": pkt.src_host, "dst": pkt.dst_host,
                "leg": tr.leg_idx,
                "route_switches": self._leg_switches(pkt, tr.leg_idx),
                "holds": [self._channel_name(ch) for ch, _g in tr.holds],
                "waits_on": None}
            if tr.pending is not None:
                blocked_ch = arb_channel.get(id(tr.pending))
                owner = tr.pending.owner
                if blocked_ch is not None:
                    entry["waits_on"] = self._channel_name(blocked_ch)
                wait_for.append({
                    "waiter": pid,
                    "channel": entry["waits_on"],
                    "owner": getattr(owner, "pid", None)})
            worms.append(entry)
        return {"blocked_worms": worms, "channel_owners": owners,
                "wait_for": wait_for}

    # -- dynamic faults ------------------------------------------------------

    def _kill_link(self, link_id: int) -> None:
        """Both directed channels of the cable die now.

        Waiters queued on a dead channel are drained *before* its owner
        is dropped, so the owner's release cannot grant the dead channel
        to a stale requester.  An owner whose header already committed
        at its leg-target NIC (transit no longer active) streams its
        tail out and releases normally.
        """
        chans = (self._net[(link_id, 0)], self._net[(link_id, 1)])
        for ch in chans:
            ch.dead = True
            if ch.deferred is not None:
                self._settle(ch)
        active = self._active
        for ch in chans:
            arb = ch.arbiter
            for tok in arb.cancel_waiting():
                tr = active.get(tok.pid)
                if tr is not None:
                    tr.pending = None   # just dequeued from this arbiter
                    self._drop_transit(tr)
            owner = arb.owner
            if owner is not None:
                tr = active.get(owner.pid)
                if tr is not None and any(h[0] is ch for h in tr.holds):
                    self._drop_transit(tr)

    def _drop_transit(self, transit: _LegTransit) -> None:
        """Kill a stranded worm: release what it still holds, credit its
        in-transit pool reservation, and account the drop."""
        if transit.dropped:
            return
        transit.dropped = True
        pkt = transit.pkt
        self._active.pop(pkt.pid, None)
        if transit.pending is not None:
            transit.pending.cancel(pkt)
            transit.pending = None
        now = self.sim.now
        for ch, g in transit.holds:
            # reservation time is accounted; the partial worm's flits
            # are not (they never fully crossed)
            ch.record_passage(0, g, now)
            ch.arbiter.release(pkt)
        transit.holds = []
        if transit.pool_host >= 0:
            self.nics[transit.pool_host].itb_release(transit.pool_bytes)
            transit.pool_host = -1
        self._finish_drop(pkt, now)
