"""Array-native batch engine: greedy channel reservation over flat state.

The packet engine spends one heap event per arbitration step -- ~50
events per message -- which caps it near 3e5 events/s and makes
512-switch saturation sweeps take hours.  This engine replaces the
per-event heap with **batched time-stepping over flat arrays**:

* every directed channel (two per cable, one injection and one delivery
  channel per NIC) is a row in three flat vectors -- ``busy_until``,
  ``flits`` and ``reserved_ps`` (plain int lists);
* every in-flight packet is one slot in parallel per-slot arrays
  (an immutable info tuple plus mutable leg / injection stamps);
* the simulator heap carries only fixed-stride *batch ticks* (default
  one per simulated microsecond): each tick drains every admission,
  ITB re-injection and delivery whose time has come, in one pass.

**Timing model.**  A packet's whole leg is computed in closed form at
admission: at each channel ``grant = max(arrival, busy_until)``, the
channel is then held for exactly one wire-length of flit cycles
(bandwidth serialisation), and the header pays the same per-hop routing
delay and cable propagation as the packet engine.  Uncontended packets
therefore deliver at **bit-identical** timestamps to the packet engine
(both regimes of the wormhole model collapse to the same delivery
instant when nothing blocks).  Under contention the models diverge:
wormhole blocking holds *every* upstream channel while the head waits,
while the greedy reservation holds each channel only for its transfer
time -- an optimistic approximation whose observable effect is bounded
in the parity suite (see DESIGN section 15 for the documented slack).
The engine does not model deadlock: mis-routed configurations that
deadlock the packet engine simply serialise here.

**Batch-advance invariant.**  Channel-mutating work is processed in
global ``(time, seq)`` order regardless of how tick boundaries chop it
up -- a tick at ``T`` drains the merged admission/re-injection streams
up to ``T`` in time order, and anything a walk schedules lands strictly
later than everything already drained.  Computed timestamps are
therefore *stride-invariant* (pinned by a test), and the warm-up /
end-of-run boundaries are exact: ``reset_stats`` and ``finalize`` run a
catch-up drain before counters are read or zeroed.  Deliveries never
touch channel state, so when no per-packet delivery callback is
registered (the batch-sink path) they bypass the work heap entirely and
are flushed unordered within each drain -- every accumulator they feed
is order-free, and keeping them off the heap halves the heap traffic.

Admission is one scalar kernel (``_admit_walk``), one message at a
time: the paper's hosts fire from random phases, so same-instant
admission cohorts large enough to amortise a vectorised walk do not
form (DESIGN section 15 has the measurement).

Capabilities: the two batch interfaces.  The ITB
pool is modelled as infinite (re-injection never stalls on pool space;
parity with the packet engine holds whenever that engine reports zero
overflows), so ``itb_pool`` is declined along with ``trace``,
``dynamic_faults`` and ``reliable_delivery`` -- asking for any of them
raises :class:`~repro.sim.base.UnsupportedCapability` instead of
returning fabricated numbers.
"""

from __future__ import annotations

from heapq import heappush, heappop
from itertools import islice
from operator import gt
from typing import List, Optional, Sequence, Tuple

from ..traffic.base import Schedule
from .base import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT, LinkChannelStats,
                   NetworkModel)
from .engines import register
from .packet import Packet

#: work-item kinds on the engine's internal heap
_INJECT, _REINJECT, _DELIVER = 0, 1, 2

#: slot info-tuple fields (immutable per packet; leg / injection stamps
#: live in their own mutable arrays)
_ROUTE, _SRC, _DST, _PAYLOAD, _ALT, _PID, _CREATED, _PKT = range(8)


@register("array")
class ArrayNetwork(NetworkModel):
    """Batched greedy-reservation engine (see module docstring)."""

    CAPABILITIES = frozenset({CAP_BATCH_INJECT, CAP_BATCH_DELIVERY})

    #: simulated time between batch ticks; results are stride-invariant,
    #: the stride only trades heap events against per-tick batch size
    STRIDE_PS = 4_000_000

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        g = self.graph
        num_dirs = 2 * g.num_links
        self._inj0 = num_dirs                       # INJ channel of host h
        self._del0 = num_dirs + g.num_hosts         # DEL channel of host h
        self._n_chan = num_dirs + 2 * g.num_hosts
        #: per directed channel: reserved through this time
        self._busy: List[int] = [0] * self._n_chan
        #: per directed channel: flits crossed / time reserved since the
        #: last stats reset (charged at acquisition, see _walk_slot)
        self._flits: List[int] = [0] * self._n_chan
        self._reserved: List[int] = [0] * self._n_chan
        self._last_reset = 0

        #: host id -> switch id (admission fast path)
        self._hsw: List[int] = [0] * g.num_hosts
        for h in g.hosts:
            self._hsw[h.id] = g.host_switch(h.id)
        p = self.params
        # hot-path constants (params are immutable for the run; the
        # routing tables cannot be swapped either -- swap_tables
        # requires the reliable-delivery capability this engine declines)
        self._fc = p.flit_cycle_ps
        self._lp = p.link_prop_ps
        self._rdlp = p.routing_delay_ps + p.link_prop_ps
        self._hdr = p.header_type_bytes
        self._itb_delay = p.itb_detect_ps + p.itb_dma_setup_ps
        self._routes_map = self.tables.routes

        # primed schedule (the Schedule's columns, shared) + cursor
        self._sched_t: Sequence[int] = ()
        self._sched_src: Sequence[int] = ()
        self._sched_dst: Sequence[int] = ()
        self._sched_i = 0
        #: merged heap of (t, seq, kind, slot) channel-mutating work
        self._work: list = []
        self._work_seq = 0
        #: (t_tail, slot) deliveries awaiting their drain (sink path
        #: only -- with per-packet callbacks deliveries use the heap);
        #: _pend_min tracks the earliest entry (None iff empty) so the
        #: per-tick idle/boundary checks never scan the list
        self._pending_del: List[Tuple[int, int]] = []
        self._pend_min: Optional[int] = None
        #: next tick already on the simulator heap (None = engine idle)
        self._next_tick_at: Optional[int] = None

        # per-packet slots (append-only; slot == index): one immutable
        # info tuple plus the two fields a walk mutates
        self._p_info: List[Optional[tuple]] = []
        self._p_leg: List[int] = []
        self._p_injected: List[Optional[int]] = []

        #: pending delivery cohort for the batch sink (parallel lists)
        self._sink_lat: List[int] = []
        self._sink_netlat: List[int] = []
        self._sink_payload: List[int] = []
        self._sink_itbs: List[int] = []

        self._itb_packets = 0

    # -- NetworkModel contract ---------------------------------------------

    def _inject(self, pkt: Packet) -> None:
        slot = len(self._p_info)
        self._p_info.append((pkt.route, pkt.src_host, pkt.dst_host,
                             pkt.payload_bytes, pkt.alt_index, pkt.pid,
                             pkt.created_ps, pkt))
        self._p_leg.append(0)
        self._p_injected.append(None)
        self._push_work(self.sim.now, _INJECT, slot)
        self._ensure_tick(self.sim.now)

    def _reset_engine_stats(self) -> None:
        # catch-up drain: every admission / delivery at or before *now*
        # is accounted to the old window before the counters are zeroed,
        # making the warm-up boundary exact despite batching
        self._drain(self.sim.now)
        self._flits = [0] * self._n_chan
        self._reserved = [0] * self._n_chan
        self._last_reset = self.sim.now

    def finalize(self) -> None:
        self._drain(self.sim.now)

    def link_flit_counts(self) -> List[LinkChannelStats]:
        out = []
        flits, reserved = self._flits, self._reserved
        for link in self.graph.links:
            d = link.id << 1
            out.append(LinkChannelStats(link.a, link.b, link.id,
                                        flits[d], reserved[d]))
            out.append(LinkChannelStats(link.b, link.a, link.id,
                                        flits[d | 1], reserved[d | 1]))
        return out

    # -- batch interfaces --------------------------------------------------

    def prime_schedule(self, schedule) -> None:
        """Load a pregenerated schedule (a :class:`~repro.traffic.base
        .Schedule`, or any iterable of ``(t_ps, src, dst)`` sorted by
        time, converted once) and start ticking at its first entry.
        The columns are read in place, never copied or mutated (runs
        sharing a seed share them)."""
        if self._sched_i < len(self._sched_t):
            raise RuntimeError("a primed schedule is already pending")
        if not isinstance(schedule, Schedule):
            schedule = Schedule.from_triples(schedule)
        if not len(schedule):
            return
        ts = schedule.t
        if any(map(gt, ts, islice(ts, 1, None))):
            raise ValueError("schedule must be sorted by time")
        # an id outside the fabric would only surface as an IndexError
        # deep in a drain; an entry before *now* would stamp channels
        # busy in the past
        n = self.graph.num_hosts
        if not (0 <= min(min(schedule.src), min(schedule.dst))
                and max(max(schedule.src), max(schedule.dst)) < n):
            bad = next(e for e in schedule
                       if not (0 <= e[1] < n and 0 <= e[2] < n))
            raise ValueError(f"schedule entry {bad} names a host outside "
                             f"[0, {n})")
        if ts[0] < self.sim.now:
            raise ValueError(f"schedule entry {next(iter(schedule))} lies "
                             f"before the current time {self.sim.now}")
        self._sched_t = ts
        self._sched_src = schedule.src
        self._sched_dst = schedule.dst
        self._sched_i = 0
        self._ensure_tick(ts[0])

    # -- work bookkeeping --------------------------------------------------

    def _push_work(self, t: int, kind: int, slot: int) -> None:
        heappush(self._work, (t, self._work_seq, kind, slot))
        self._work_seq += 1

    def _ensure_tick(self, t: int) -> None:
        nt = self._next_tick_at
        if nt is None or t < nt:
            self._next_tick_at = t
            self.sim.at(t, self._tick)

    def _next_time(self) -> Optional[int]:
        cands = []
        if self._sched_i < len(self._sched_t):
            cands.append(self._sched_t[self._sched_i])
        if self._work:
            cands.append(self._work[0][0])
        if self._pend_min is not None:
            cands.append(self._pend_min)
        return min(cands) if cands else None

    # -- the batch tick ----------------------------------------------------

    def _tick(self) -> None:
        # superseded ticks (ensure_tick may schedule ahead of one
        # already on the heap) drain idempotently -- no guard needed
        now = self.sim.now
        self._drain(now)
        nxt = self._next_time()
        if nxt is None:
            self._next_tick_at = None
            return
        t = nxt if nxt > now + self.STRIDE_PS else now + self.STRIDE_PS
        self._next_tick_at = t
        self.sim.at(t, self._tick)

    def _drain(self, T: int) -> None:
        """Process every admission / re-injection / delivery with
        ``t <= T``; channel-mutating work in global (time, seq) order,
        order-free deliveries flushed at the end."""
        sched_t, work = self._sched_t, self._work
        srcs, dsts = self._sched_src, self._sched_dst
        n = len(sched_t)
        i = self._sched_i
        admit_walk = self._admit_walk
        walk_slot = self._walk_slot
        complete = self._complete
        try:
            while True:
                t_s = sched_t[i] if i < n else None
                t_w = work[0][0] if work else None
                if (t_w is not None and t_w <= T
                        and (t_s is None or t_w <= t_s)):
                    t, _seq, kind, slot = heappop(work)
                    if kind == _DELIVER:
                        complete(slot, t)
                    else:
                        walk_slot(slot, t)
                elif t_s is not None and t_s <= T:
                    # admit one message and re-check the work heap:
                    # exact (time, seq) order with no chunk machinery
                    admit_walk(t_s, srcs[i], dsts[i])
                    i += 1
                else:
                    break
        finally:
            self._sched_i = i
        if self._pend_min is not None and self._pend_min <= T:
            keep = []
            kapp = keep.append
            sink = self._delivery_sink
            if not self._delivery_callbacks and sink is not None:
                # bulk-complete straight into the sink buffers; slots
                # carrying a real Packet (engine-level send()) still go
                # through _complete for its materialisation bookkeeping
                p_info = self._p_info
                inj = self._p_injected
                lat_a = self._sink_lat.append
                net_a = self._sink_netlat.append
                pay_a = self._sink_payload.append
                itb_a = self._sink_itbs.append
                done = 0
                for t_tail, slot in self._pending_del:
                    if t_tail > T:
                        kapp((t_tail, slot))
                        continue
                    info = p_info[slot]
                    if info[_PKT] is not None:
                        self._complete(slot, t_tail)
                        continue
                    done += 1
                    lat_a(t_tail - info[_CREATED])
                    net_a(t_tail - inj[slot])
                    pay_a(info[_PAYLOAD])
                    itb_a(len(info[_ROUTE].itb_hosts))
                    p_info[slot] = None
                self.delivered += done
                self.delivered_since_check += done
            else:
                complete = self._complete
                for t_tail, slot in self._pending_del:
                    if t_tail <= T:
                        complete(slot, t_tail)
                    else:
                        kapp((t_tail, slot))
            self._pending_del = keep
            self._pend_min = min(p[0] for p in keep) if keep else None
        self._flush_sink()

    # -- admission ---------------------------------------------------------

    def _admit_walk(self, t: int, src: int, dst: int) -> None:
        """Admit one primed-schedule message and walk its first leg --
        the ``send()`` bookkeeping with route lookup inlined (no link
        can be dead: the engine declines ``dynamic_faults``)."""
        hsw = self._hsw
        alts = self._routes_map[(hsw[src], hsw[dst])]
        if len(alts) == 1:
            alt = 0
        else:
            alt = self.policy.select_index(src, dst, alts)
        self.generated += 1
        pid = self._next_pid
        self._next_pid += 1
        slot = len(self._p_info)
        self._p_info.append((alts[alt], src, dst, self.message_bytes,
                             alt, pid, t, None))
        self._p_leg.append(0)
        self._p_injected.append(None)
        self._walk_slot(slot, t)

    # -- the walk ----------------------------------------------------------

    def _walk_slot(self, slot: int, t_ready: int) -> None:
        """Walk the slot's current leg in closed form: greedily reserve
        the injection channel, each directed hop and the delivery
        channel, then queue the resulting delivery or re-injection."""
        fc = self._fc
        lp = self._lp
        rdlp = self._rdlp
        busy = self._busy
        flits, reserved = self._flits, self._reserved

        info = self._p_info[slot]
        route = info[_ROUTE]
        leg_idx = self._p_leg[slot]
        legs = route.legs
        leg = legs[leg_idx]
        try:
            ovh = route._leg_overheads
        except AttributeError:
            ovh = route.leg_overheads
        wire = info[_PAYLOAD] + self._hdr + ovh[leg_idx]
        hold = wire * fc

        if leg_idx == 0:
            host = info[_SRC]
        else:
            host = route.itb_hosts[leg_idx - 1]
        c = self._inj0 + host
        b = busy[c]
        g = b if b > t_ready else t_ready
        rel = g + hold
        busy[c] = rel
        flits[c] += wire
        reserved[c] += rel - g
        if leg_idx == 0:            # a slot's first leg walks exactly once
            self._p_injected[slot] = g

        a = g + lp
        try:
            dirs = leg._dir_hops
        except AttributeError:
            dirs = leg.dir_hops(self.graph)
        for d in dirs:
            b = busy[d]
            g = b if b > a else a
            rel = g + hold
            busy[d] = rel
            flits[d] += wire
            reserved[d] += rel - g
            a = g + rdlp

        last_leg = leg_idx == len(legs) - 1
        target = info[_DST] if last_leg else route.itb_hosts[leg_idx]
        c = self._del0 + target
        b = busy[c]
        g = b if b > a else a
        rel = g + hold
        busy[c] = rel
        flits[c] += wire
        reserved[c] += rel - g
        t_head = g + rdlp

        if last_leg:
            t_tail = t_head + hold
            if self._delivery_callbacks:
                heappush(self._work,
                         (t_tail, self._work_seq, _DELIVER, slot))
                self._work_seq += 1
            else:
                self._pending_del.append((t_tail, slot))
                pm = self._pend_min
                if pm is None or t_tail < pm:
                    self._pend_min = t_tail
        else:
            self._p_leg[slot] = leg_idx + 1
            self._itb_packets += 1
            heappush(self._work, (t_head + self._itb_delay,
                                  self._work_seq, _REINJECT, slot))
            self._work_seq += 1

    # -- delivery ----------------------------------------------------------

    def _complete(self, slot: int, t_tail: int) -> None:
        info = self._p_info[slot]
        pkt = info[_PKT]
        if pkt is not None or self._delivery_callbacks:
            if pkt is None:
                pkt = Packet(info[_PID], info[_SRC], info[_DST],
                             info[_PAYLOAD], info[_ROUTE], info[_CREATED],
                             self.params, alt_index=info[_ALT])
            pkt.injected_ps = self._p_injected[slot]
            self._finish_delivery(pkt, t_tail)
        else:
            self.delivered += 1
            self.delivered_since_check += 1
        if self._delivery_sink is not None:
            self._sink_lat.append(t_tail - info[_CREATED])
            self._sink_netlat.append(t_tail - self._p_injected[slot])
            self._sink_payload.append(info[_PAYLOAD])
            self._sink_itbs.append(len(info[_ROUTE].itb_hosts))
        self._p_info[slot] = None                    # free references

    def _flush_sink(self) -> None:
        if self._delivery_sink is None or not self._sink_lat:
            return
        self._delivery_sink.record_batch(
            self._sink_lat, self._sink_netlat, self._sink_payload,
            self._sink_itbs, [0] * len(self._sink_lat))
        self._sink_lat = []
        self._sink_netlat = []
        self._sink_payload = []
        self._sink_itbs = []

    # -- runtime invariants --------------------------------------------------

    def _audit_engine(self, check) -> None:
        check(len(self._p_leg) == len(self._p_info)
              and len(self._p_injected) == len(self._p_info),
              "slot arrays out of sync")
        live = sum(1 for info in self._p_info if info is not None)
        check(live == self.in_flight,
              f"conservation: {live} live slots but ledger says "
              f"{self.in_flight} packets in flight")
        check(all(b >= 0 for b in self._busy),
              "channel busy horizon went negative")
        check(all(f >= 0 for f in self._flits),
              "channel flit counter went negative")
        check(all(r >= 0 for r in self._reserved),
              "channel reserved time went negative")
        for slot, info in enumerate(self._p_info):
            if info is None:
                continue
            check(0 <= self._p_leg[slot] < len(info[_ROUTE].legs),
                  f"slot {slot}: leg index {self._p_leg[slot]} outside "
                  f"its {len(info[_ROUTE].legs)}-leg route")
        for t_tail, slot in self._pending_del:
            check(self._p_info[slot] is not None,
                  f"pending delivery references freed slot {slot}")
            check(self._pend_min is not None
                  and self._pend_min <= t_tail,
                  f"pending-delivery minimum out of date ({self._pend_min}"
                  f" vs {t_tail})")
        check((self._pend_min is None) == (not self._pending_del),
              "pending-delivery minimum set without pending entries")
        check(0 <= self._sched_i <= len(self._sched_t),
              "primed-schedule cursor out of range")
        check(len(self._sink_lat) == len(self._sink_netlat)
              == len(self._sink_payload) == len(self._sink_itbs),
              "delivery-sink cohort lists out of sync")

    def _audit_drained(self, check) -> None:
        live = sum(1 for info in self._p_info if info is not None)
        check(live == 0, f"drained: {live} slots still live")
        check(not self._work, f"drained: {len(self._work)} work items "
                              "still heaped")
        check(not self._pending_del,
              f"drained: {len(self._pending_del)} deliveries pending")
        check(self._sched_i == len(self._sched_t),
              f"drained: primed schedule has "
              f"{len(self._sched_t) - self._sched_i} unadmitted entries")
        check(not self._sink_lat,
              f"drained: {len(self._sink_lat)} deliveries unflushed")

    def _stall_snapshot(self) -> dict:
        # the greedy-reservation walk cannot block, so there is no
        # wait-for graph; a stall here means the engine stopped
        # scheduling work while slots are live
        live = [slot for slot, info in enumerate(self._p_info)
                if info is not None]
        return {
            "blocked_worms": [
                {"pid": self._p_info[s][_PID], "src": self._p_info[s][_SRC],
                 "dst": self._p_info[s][_DST], "leg": self._p_leg[s]}
                for s in live[:64]],
            "channel_owners": [],
            "wait_for": [],
            "work_heap": len(self._work),
            "next_work_ps": self._work[0][0] if self._work else None,
            "pending_deliveries": len(self._pending_del),
            "busy_horizon_ps": max(self._busy, default=0),
        }
