"""Array-native batch engine: greedy channel reservation over flat state.

The packet engine spends one heap event per arbitration step -- about
13 events per message (``fig7-packet``: 3 950 139 events for 297 658
deliveries) -- and its loop is the measured bottleneck of every
packet-engine sweep.  This engine replaces the per-event heap with
**batched time-stepping over flat state**:

* every directed channel (two per cable, one injection and one delivery
  channel per NIC) is a row in two flat int vectors, ``busy_until``
  and ``flits`` (reserved time is ``flits * flit_cycle``, derived);
* every in-flight message is exactly one heap entry: a walk or
  callback delivery ``(t, seq, kind, info, leg, injected)`` on the work
  heap, or a sink delivery ``(t_tail, seq, info, injected)`` on the
  pending heap, with ``info`` the message's immutable tuple;
* the simulator heap carries only *batch ticks*, each draining every
  admission, ITB re-injection and delivery whose time has come.  With
  no per-packet delivery callback registered (the batch-sink path every
  paper figure takes) the next tick is the engine's earliest own work
  or the simulator's next event, whichever is later: nothing outside
  the engine looks at its state in between.  With callbacks (or with
  no other event pending: nothing then marks where the caller's
  ``run_until`` ends) it is that work, but at least ``STRIDE_PS``
  (4 simulated microseconds) later.

**Timing model.**  A packet's whole leg is computed in closed form when
it is walked: at each channel ``grant = max(arrival, busy_until)``, the
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
up -- a tick at ``T`` drains the primed schedule and the work heap up
to ``T`` in time order, and anything a walk schedules lands strictly
later than everything already drained.  Computed timestamps are
therefore independent of the drain cadence (pinned by tests over
strides and over extra simulator events), and every observer sees
exact state: ``reset_stats``, ``finalize`` and the watchdog's check run
the catch-up drain (``_catch_up``) before counters are read or zeroed.
Deliveries never touch channel state, so on the batch-sink path they
stay off the work heap: one due by the end of the drain that walks it
goes straight into the sink's cohort lists, a later one (or one of a
``send()``, whose ``Packet`` is stamped by ``_complete``) waits on the
pending heap for the drain that reaches it -- every accumulator they
feed is order-free.

There is one kernel, the loop in ``_drain``: each iteration admits one
primed-schedule message or pops one work entry, and walks that leg
with every per-run constant bound to a local.  The paper's hosts fire
from random phases, so same-instant admission cohorts large enough to
amortise a vectorised walk do not form (DESIGN section 15).

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
from typing import List, Optional, Sequence

from ..traffic.base import Schedule
from .base import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT, LinkChannelStats,
                   NetworkModel)
from .engines import register
from .packet import Packet

#: work-entry kinds: walk the entry's leg / deliver (callback path)
_WALK, _DELIVER = 0, 1

#: message info-tuple fields (immutable per message; its leg and
#: injection stamp ride on the heap entry)
_ROUTE, _SRC, _DST, _PAYLOAD, _ALT, _PID, _CREATED, _PKT = range(8)


@register("array")
class ArrayNetwork(NetworkModel):
    """Batched greedy-reservation engine (see module docstring)."""

    CAPABILITIES = frozenset({CAP_BATCH_INJECT, CAP_BATCH_DELIVERY})

    #: least simulated time between batch ticks while delivery
    #: callbacks are registered (they fire at drain time); results are
    #: stride-invariant, the stride only trades heap events against
    #: per-tick batch size
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
        #: per directed channel: flits crossed since the last stats
        #: reset (charged at acquisition; each flit holds the channel
        #: one flit cycle, so reserved time is derived from it)
        self._flits: List[int] = [0] * self._n_chan

        # primed schedule (the Schedule's columns, shared) + cursor
        self._sched_t: Sequence[int] = ()
        self._sched_src: Sequence[int] = ()
        self._sched_dst: Sequence[int] = ()
        self._sched_i = 0
        #: (t, seq, kind, info, leg, injected): channel-mutating walks
        #: and, with per-packet callbacks, deliveries
        self._work: list = []
        #: (t_tail, seq, info, injected): batch-sink deliveries
        self._pending: list = []
        self._work_seq = 0
        #: next tick already on the simulator heap (None = engine idle)
        self._next_tick_at: Optional[int] = None

        #: pending delivery cohort for the batch sink (parallel lists)
        self._sink_lat: List[int] = []
        self._sink_netlat: List[int] = []
        self._sink_payload: List[int] = []
        self._sink_itbs: List[int] = []

    # -- NetworkModel contract ---------------------------------------------

    def _inject(self, pkt: Packet) -> None:
        info = (pkt.route, pkt.src_host, pkt.dst_host, pkt.payload_bytes,
                pkt.alt_index, pkt.pid, pkt.created_ps, pkt)
        heappush(self._work,
                 (self.sim.now, self._work_seq, _WALK, info, 0, None))
        self._work_seq += 1
        self._ensure_tick(self.sim.now)

    def _reset_engine_stats(self) -> None:
        # catch-up drain: every admission / delivery at or before *now*
        # is accounted to the old window before the counters are zeroed,
        # making the warm-up boundary exact despite batching
        self._catch_up()
        self._flits = [0] * self._n_chan

    def _catch_up(self) -> None:
        self._drain(self.sim.now)

    def link_flit_counts(self) -> List[LinkChannelStats]:
        out = []
        flits, fc = self._flits, self.params.flit_cycle_ps
        for link in self.graph.links:
            d = link.id << 1
            out.append(LinkChannelStats(link.a, link.b, link.id,
                                        flits[d], flits[d] * fc))
            out.append(LinkChannelStats(link.b, link.a, link.id,
                                        flits[d | 1], flits[d | 1] * fc))
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

    # -- the batch tick ----------------------------------------------------

    def _ensure_tick(self, t: int) -> None:
        nt = self._next_tick_at
        if nt is None or t < nt:
            self._next_tick_at = t
            self.sim.at(t, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        if now != self._next_tick_at:
            # superseded: _ensure_tick armed an earlier tick, and that
            # one re-armed the chain -- re-arming here would fork it
            return
        self._drain(now)
        cands = [e[0][0] for e in (self._work, self._pending) if e]
        if self._sched_i < len(self._sched_t):
            cands.append(self._sched_t[self._sched_i])
        if not cands:
            self._next_tick_at = None
            return
        t = min(cands)
        nxt = self.sim.peek_time()
        if self._delivery_callbacks or nxt is None:
            # callbacks fire at drain time: the stride bounds how late;
            # with no other event the run's end is unknown
            t = max(t, now + self.STRIDE_PS)
        elif nxt > t:
            # batch sink: nothing outside the engine can look at its
            # state before the simulator's next event
            t = nxt
        self._next_tick_at = t
        self.sim.at(t, self._tick)

    def _drain(self, T: int) -> None:
        """Admit, walk and deliver everything with ``t <= T``: the one
        kernel.  Channel-mutating work runs in global (time, seq) order
        (a schedule entry and a work entry at the same instant: work
        first); a batch-sink delivery due by ``T`` is recorded as its
        walk ends, and the pending ones due by ``T`` at the end."""
        sched_t, srcs, dsts = self._sched_t, self._sched_src, self._sched_dst
        n = len(sched_t)
        i = self._sched_i
        work, pending = self._work, self._pending
        busy, flits = self._busy, self._flits
        p = self.params
        fc, lp, hdr = p.flit_cycle_ps, p.link_prop_ps, p.header_type_bytes
        rdlp = p.routing_delay_ps + p.link_prop_ps
        itb_delay = p.itb_detect_ps + p.itb_dma_setup_ps
        inj0, del0 = self._inj0, self._del0
        # the tables cannot be swapped mid-run: swap_tables requires
        # the reliable-delivery capability this engine declines
        routes_map, hsw = self.tables.routes, self._host_switch
        select_index = self.policy.select_index
        nbytes, graph = self.message_bytes, self.graph
        callbacks = self._delivery_callbacks
        complete = self._complete
        # batch sink: a primed message delivered by T goes straight into
        # the cohort lists, without a pending-heap round trip
        lat_a = self._sink_lat.append
        net_a = self._sink_netlat.append
        pay_a = self._sink_payload.append
        itb_a = self._sink_itbs.append
        # admission and delivery counters live in locals and are written
        # back before anything outside this loop (a delivery callback,
        # which may audit or send()) can read them
        pid, seq, done = self._next_pid, self._work_seq, 0
        end = T + 1
        t_s = sched_t[i] if i < n else end
        try:
            while True:
                t = work[0][0] if work else end
                if t_s < t:
                    if t_s > T:
                        break
                    # admit one primed-schedule message: send() with
                    # the route lookup inlined (no link can be dead:
                    # the engine declines dynamic_faults)
                    t, src, dst = t_s, srcs[i], dsts[i]
                    i += 1
                    t_s = sched_t[i] if i < n else end
                    alts = routes_map[(hsw[src], hsw[dst])]
                    alt = (0 if len(alts) == 1
                           else select_index(src, dst, alts))
                    info = (alts[alt], src, dst, nbytes, alt, pid, t, None)
                    pid += 1
                    leg_idx, injected = 0, None
                elif t <= T:
                    t, _, kind, info, leg_idx, injected = heappop(work)
                    if kind == _DELIVER:
                        self.generated += pid - self._next_pid
                        self._next_pid, self._work_seq = pid, seq
                        complete(info, injected, t)
                        pid, seq = self._next_pid, self._work_seq
                        continue
                else:
                    break

                # walk the leg in closed form: greedily reserve the
                # injection channel, each directed hop and the delivery
                # channel, then queue the re-injection or delivery
                route = info[_ROUTE]
                legs = route.legs
                try:
                    ovh = route._leg_overheads
                except AttributeError:
                    ovh = route.leg_overheads
                wire = info[_PAYLOAD] + hdr + ovh[leg_idx]
                hold = wire * fc
                c = inj0 + (info[_SRC] if leg_idx == 0
                            else route.itb_hosts[leg_idx - 1])
                b = busy[c]
                g = b if b > t else t
                busy[c] = g + hold
                flits[c] += wire
                if leg_idx == 0:        # a message's first leg walks once
                    injected = g
                a = g + lp
                leg = legs[leg_idx]
                try:
                    dirs = leg._dir_hops
                except AttributeError:
                    dirs = leg.dir_hops(graph)
                for d in dirs:
                    b = busy[d]
                    g = b if b > a else a
                    busy[d] = g + hold
                    flits[d] += wire
                    a = g + rdlp
                last_leg = leg_idx == len(legs) - 1
                c = del0 + (info[_DST] if last_leg
                            else route.itb_hosts[leg_idx])
                b = busy[c]
                g = b if b > a else a
                busy[c] = g + hold
                flits[c] += wire
                if not last_leg:
                    heappush(work, (g + rdlp + itb_delay, seq, _WALK, info,
                                    leg_idx + 1, injected))
                    seq += 1
                    continue
                t = g + rdlp + hold
                if callbacks:
                    heappush(work, (t, seq, _DELIVER, info, leg_idx,
                                    injected))
                elif t <= T and info[_PKT] is None:
                    done += 1
                    lat_a(t - info[_CREATED])
                    net_a(t - injected)
                    pay_a(info[_PAYLOAD])
                    itb_a(len(route.itb_hosts))
                else:
                    # due after T, or a send() whose Packet needs
                    # _complete's bookkeeping
                    heappush(pending, (t, seq, info, injected))
                seq += 1
        finally:
            self._sched_i = i
            self.generated += pid - self._next_pid
            self._next_pid, self._work_seq = pid, seq
            self.delivered += done
            self.delivered_since_check += done
        if pending and pending[0][0] <= T:
            # the batch sink's deliveries due by T that went on the heap
            # (an earlier drain's, or a send()'s: its Packet needs
            # _complete's bookkeeping)
            done = 0
            while pending and pending[0][0] <= T:
                t, _, info, injected = heappop(pending)
                if info[_PKT] is not None or callbacks:
                    complete(info, injected, t)
                    continue
                done += 1
                lat_a(t - info[_CREATED])
                net_a(t - injected)
                pay_a(info[_PAYLOAD])
                itb_a(len(info[_ROUTE].itb_hosts))
            self.delivered += done
            self.delivered_since_check += done
        self._flush_sink()

    # -- delivery ----------------------------------------------------------

    def _complete(self, info: tuple, injected: int, t_tail: int) -> None:
        pkt = info[_PKT]
        if pkt is not None or self._delivery_callbacks:
            if pkt is None:
                pkt = Packet(info[_PID], info[_SRC], info[_DST],
                             info[_PAYLOAD], info[_ROUTE], info[_CREATED],
                             self.params, alt_index=info[_ALT])
            pkt.injected_ps = injected
            self._finish_delivery(pkt, t_tail)
        else:
            self.delivered += 1
            self.delivered_since_check += 1
        if self._delivery_sink is not None:
            self._sink_lat.append(t_tail - info[_CREATED])
            self._sink_netlat.append(t_tail - injected)
            self._sink_payload.append(info[_PAYLOAD])
            self._sink_itbs.append(len(info[_ROUTE].itb_hosts))

    def _flush_sink(self) -> None:
        if not self._sink_lat:
            return
        if self._delivery_sink is not None:
            self._delivery_sink.record_batch(
                self._sink_lat, self._sink_netlat, self._sink_payload,
                self._sink_itbs)
        self._sink_lat = []
        self._sink_netlat = []
        self._sink_payload = []
        self._sink_itbs = []

    # -- runtime invariants --------------------------------------------------

    def _entries(self):
        """(info, leg, kind) of every in-flight message, work heap first
        (a pending sink delivery reports its last leg and _DELIVER)."""
        for e in self._work:
            yield e[3], e[4], e[2]
        for e in self._pending:
            yield e[2], len(e[2][_ROUTE].legs) - 1, _DELIVER

    def _audit_engine(self, check) -> None:
        work, pending = self._work, self._pending
        check(len(work) + len(pending) == self.in_flight,
              f"conservation: {len(work)} work + {len(pending)} pending "
              f"entries but ledger says {self.in_flight} packets in flight")
        check(all(b >= 0 for b in self._busy),
              "channel busy horizon went negative")
        check(all(f >= 0 for f in self._flits),
              "channel flit counter went negative")
        for name, heap in (("work", work), ("pending", pending)):
            check(all(heap[(k - 1) >> 1][:2] <= heap[k][:2]
                      for k in range(1, len(heap))),
                  f"{name} heap out of (time, seq) order")
        pids = set()
        for info, leg, kind in self._entries():
            pids.add(info[_PID])
            legs = len(info[_ROUTE].legs)
            check(0 <= leg < legs and (kind == _WALK or leg == legs - 1),
                  f"pid {info[_PID]}: leg index {leg} outside its "
                  f"{legs}-leg route")
        check(len(pids) == len(work) + len(pending),
              "a message sits in more than one heap entry")
        check(0 <= self._sched_i <= len(self._sched_t),
              "primed-schedule cursor out of range")
        check(len(self._sink_lat) == len(self._sink_netlat)
              == len(self._sink_payload) == len(self._sink_itbs),
              "delivery-sink cohort lists out of sync")

    def _audit_drained(self, check) -> None:
        check(not self._work, f"drained: {len(self._work)} work items "
                              "still heaped")
        check(not self._pending,
              f"drained: {len(self._pending)} deliveries pending")
        check(self._sched_i == len(self._sched_t),
              f"drained: primed schedule has "
              f"{len(self._sched_t) - self._sched_i} unadmitted entries")
        check(not self._sink_lat,
              f"drained: {len(self._sink_lat)} deliveries unflushed")

    def _stall_snapshot(self) -> dict:
        # the greedy-reservation walk cannot block, so there is no
        # wait-for graph; a stall here means the engine stopped
        # scheduling work while messages are in flight
        return {
            "blocked_worms": [
                {"pid": info[_PID], "src": info[_SRC], "dst": info[_DST],
                 "leg": leg}
                for info, leg, _ in islice(self._entries(), 64)],
            "channel_owners": [],
            "wait_for": [],
            "work_heap": len(self._work),
            "next_work_ps": self._work[0][0] if self._work else None,
            "pending_deliveries": len(self._pending),
            "busy_horizon_ps": max(self._busy, default=0),
        }
