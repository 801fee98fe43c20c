"""Array-native batch engine: greedy channel reservation over flat state.

The packet engine spends one heap event per arbitration step -- ~50
events per message -- which caps it near 3e5 events/s and makes
512-switch saturation sweeps take hours.  This engine replaces the
per-event heap with **batched time-stepping over flat arrays**:

* every directed channel (two per cable, one injection and one delivery
  channel per NIC) is a row in three flat vectors -- ``busy_until``,
  ``flits`` and ``reserved_ps`` (plain int lists on the scalar path,
  snapshotted into numpy arrays by the vectorised cohort kernel);
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
is order-free, and keeping them off the heap both halves the heap
traffic and widens the reorder-safe admission cohort (the earliest
channel-mutating feedback of a walk is its ITB re-injection).

Large same-instant admission cohorts (collective patterns, drained
batches) go through a vectorised kernel: all members' walks are
computed in parallel against a numpy snapshot of the tick-start channel
state, members whose channel footprints are disjoint commit wholesale,
and the few that actually contend are re-walked scalar in admission
order -- the result is **bit-identical** to the pure scalar path (also
pinned by a test).

Capabilities: link statistics and the two batch interfaces.  The ITB
pool is modelled as infinite (re-injection never stalls on pool space;
parity with the packet engine holds whenever that engine reports zero
overflows), so ``itb_pool`` is declined along with ``trace``,
``dynamic_faults`` and ``reliable_delivery`` -- asking for any of them
raises :class:`~repro.sim.base.UnsupportedCapability` instead of
returning fabricated numbers.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappush, heappop
from itertools import islice
from operator import gt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..traffic.base import Schedule
from .base import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT, CAP_INVARIANTS,
                   CAP_LINK_STATS, LinkChannelStats, NetworkModel)
from .engines import register
from .packet import Packet

#: work-item kinds on the engine's internal heap
_INJECT, _REINJECT, _DELIVER = 0, 1, 2

#: slot info-tuple fields (immutable per packet; leg / injection stamps
#: live in their own mutable arrays)
_ROUTE, _SRC, _DST, _PAYLOAD, _ALT, _PID, _CREATED, _PKT = range(8)


def _min_feedback_ps(params) -> int:
    """Lower bound on the delay between a walk and any *heap* work item
    it schedules (the head must cross at least one cable, one routing
    stage and one more cable before anything new can happen); admission
    cohorts are capped to this span so batching them cannot reorder
    work relative to the scalar (time, seq) drain.  On the batch-sink
    path deliveries stay off the heap, so the earliest heap feedback is
    an ITB re-injection and the bound grows by the detection + DMA
    overheads (see ``_gap_sink``)."""
    return 2 * params.link_prop_ps + params.routing_delay_ps


def _leg_overheads(route) -> Tuple[int, ...]:
    """Per-leg header overhead (route flits + ITB marks still carried),
    stashed on the shared route object -- same cache the packet engine's
    :class:`~repro.sim.packet.Packet` populates."""
    try:
        return route._leg_overheads
    except AttributeError:
        legs = route.legs
        n = len(legs)
        remaining_hops = sum(leg.hops for leg in legs)
        out: List[int] = []
        for k, leg in enumerate(legs):
            out.append(remaining_hops + (n - 1 - k))
            remaining_hops -= leg.hops
        overheads = tuple(out)
        route._leg_overheads = overheads
        return overheads


@register("array")
class ArrayNetwork(NetworkModel):
    """Batched greedy-reservation engine (see module docstring)."""

    CAPABILITIES = frozenset({CAP_LINK_STATS, CAP_BATCH_INJECT,
                              CAP_BATCH_DELIVERY, CAP_INVARIANTS})

    #: simulated time between batch ticks; results are stride-invariant,
    #: the stride only trades heap events against per-tick batch size
    STRIDE_PS = 4_000_000
    #: minimum same-window admission cohort that takes the vectorised
    #: kernel (below it, the numpy snapshot round-trip exceeds the
    #: scalar walk)
    VECTOR_THRESHOLD = 32

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
        #: reorder-safe cohort spans (see _min_feedback_ps)
        self._gap_cb = _min_feedback_ps(p)
        self._gap_sink = (self._gap_cb + p.itb_detect_ps
                          + p.itb_dma_setup_ps)
        # hot-path constants (params are immutable for the run; the
        # routing tables cannot be swapped either -- install_tables
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
        threshold = self.VECTOR_THRESHOLD
        gap = self._gap_cb if self._delivery_callbacks else self._gap_sink
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
                    # O(1) probe: only a cohort of >= threshold
                    # admissions inside the reorder-safe span (bounded
                    # by the tick, strictly by the next work item, and
                    # by the minimum feedback delay of a walk -- so no
                    # work produced inside it could have interleaved)
                    # pays for the vector kernel; otherwise admit one
                    # message and re-check the work heap, which keeps
                    # exact (time, seq) order with no chunk machinery
                    probe = i + threshold - 1
                    if (probe < n and sched_t[probe] <= T
                            and sched_t[probe] <= t_s + gap - 1
                            and (t_w is None or sched_t[probe] < t_w)):
                        limit = T
                        if t_w is not None and t_w - 1 < limit:
                            limit = t_w - 1
                        gap_end = t_s + gap - 1
                        if gap_end < limit:
                            limit = gap_end
                        end = bisect_right(sched_t, limit, i, n)
                        self._admit_cohort_vector(i, end)
                        i = end
                    else:
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
        the ``send()`` bookkeeping with route lookup inlined (the slow
        path below handles dead-link blacklisting)."""
        if self.dead_links:
            slot = self._admit(t, src, dst)
            if slot is not None:
                self._walk_slot(slot, t)
            return
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

    def _admit(self, t: int, src: int, dst: int) -> Optional[int]:
        """Base-``send`` bookkeeping for one primed-schedule message
        (blacklist-aware route selection; also the vector kernel's
        admission step)."""
        selected = self._select_route(src, dst)
        self.generated += 1
        pid = self._next_pid
        self._next_pid += 1
        if selected is None:        # only reachable with dead links
            self.dropped += 1
            self.dropped_unroutable += 1
            return None
        route, alt = selected
        slot = len(self._p_info)
        self._p_info.append((route, src, dst, self.message_bytes,
                             alt, pid, t, None))
        self._p_leg.append(0)
        self._p_injected.append(None)
        return slot

    # -- scalar walk -------------------------------------------------------

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
            ovh = _leg_overheads(route)
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
            dirs = self._leg_dirs(leg)
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

    def _leg_dirs(self, leg) -> Tuple[int, ...]:
        """Directed-channel indices of a leg's hops -- identical encoding
        (``link_id << 1 | direction``) and identical per-leg stash as the
        packet engine, so cached tables share the resolution."""
        try:
            return leg._dir_hops
        except AttributeError:
            links = self.graph.links
            dirs = tuple((lid << 1) | (links[lid].a != frm)
                         for lid, frm in zip(leg.links, leg.switches))
            leg._dir_hops = dirs
            return dirs

    # -- vectorised cohort admission ---------------------------------------

    def _admit_cohort_vector(self, i: int, end: int) -> None:
        """Admit schedule entries ``[i, end)`` through the numpy kernel.

        Route selection (stateful policies) runs scalar in admission
        order; the per-channel timing recurrence runs vectorised for
        every member whose channel footprint is disjoint from the rest
        of the cohort, against a numpy snapshot of the channel state
        that is written back before the stragglers run.  Contending
        members re-walk scalar in admission order afterwards -- their
        footprints are disjoint from the committed ones by construction,
        so the combined result is bit-identical to a fully scalar drain.
        """
        params = self.params
        fc = params.flit_cycle_ps
        lp = params.link_prop_ps
        rd = params.routing_delay_ps

        slots: List[int] = []
        times: List[int] = []
        dirs_list: List[Tuple[int, ...]] = []
        wires: List[int] = []
        srcs: List[int] = []
        targets: List[int] = []
        lasts: List[bool] = []
        for j in range(i, end):
            slot = self._admit(self._sched_t[j], self._sched_src[j],
                               self._sched_dst[j])
            if slot is None:
                continue
            info = self._p_info[slot]
            route = info[_ROUTE]
            slots.append(slot)
            times.append(self._sched_t[j])
            dirs_list.append(self._leg_dirs(route.legs[0]))
            wires.append(info[_PAYLOAD] + self._hdr
                         + _leg_overheads(route)[0])
            srcs.append(info[_SRC])
            last = len(route.legs) == 1
            lasts.append(last)
            targets.append(info[_DST] if last else route.itb_hosts[0])
        m = len(slots)
        if not m:
            return

        # full channel footprint per member; any channel touched twice
        # within the cohort marks *all* its users as contending
        inj = np.array(srcs, dtype=np.int64) + self._inj0
        dlv = np.array(targets, dtype=np.int64) + self._del0
        hop_counts = np.array([len(d) for d in dirs_list])
        member_of_hop = np.repeat(np.arange(m), hop_counts)
        hops = np.array([d for dirs in dirs_list for d in dirs]
                        or [], dtype=np.int64)
        foot = np.concatenate([inj, dlv, hops])
        owner = np.concatenate([np.arange(m), np.arange(m), member_of_hop])
        _, inverse, counts = np.unique(foot, return_inverse=True,
                                       return_counts=True)
        contended = np.zeros(m, dtype=bool)
        np.logical_or.at(contended, owner, counts[inverse] > 1)

        clean = np.flatnonzero(~contended)
        if clean.size:
            busy = np.array(self._busy, dtype=np.int64)
            flits = np.array(self._flits, dtype=np.int64)
            reserved = np.array(self._reserved, dtype=np.int64)
            t_v = np.array(times, dtype=np.int64)[clean]
            wire_v = np.array(wires, dtype=np.int64)[clean]
            hold_v = wire_v * fc
            ci = inj[clean]
            g = np.maximum(t_v, busy[ci])
            rel = g + hold_v
            busy[ci] = rel
            flits[ci] += wire_v
            reserved[ci] += rel - g
            inj_g = g
            a = g + lp
            # padded hop matrix: position p of every clean member
            pmax = int(hop_counts[clean].max()) if clean.size else 0
            D = np.full((clean.size, pmax), -1, dtype=np.int64)
            for r, midx in enumerate(clean):
                d = dirs_list[midx]
                D[r, :len(d)] = d
            for p in range(pmax):
                col = D[:, p]
                act = col >= 0
                if not act.any():
                    break
                c = col[act]
                g = np.maximum(a[act], busy[c])
                rel = g + hold_v[act]
                busy[c] = rel
                flits[c] += wire_v[act]
                reserved[c] += rel - g
                a[act] = g + rd + lp
            cd = dlv[clean]
            g = np.maximum(a, busy[cd])
            rel = g + hold_v
            busy[cd] = rel
            flits[cd] += wire_v
            reserved[cd] += rel - g
            t_head = g + rd + lp
            t_tail = t_head + hold_v
            reinject_at = (t_head + params.itb_detect_ps
                           + params.itb_dma_setup_ps)
            self._busy = busy.tolist()
            self._flits = flits.tolist()
            self._reserved = reserved.tolist()
            callbacks = bool(self._delivery_callbacks)
            for r, midx in enumerate(clean):
                slot = slots[midx]
                self._p_injected[slot] = int(inj_g[r])
                if lasts[midx]:
                    tt = int(t_tail[r])
                    if callbacks:
                        self._push_work(tt, _DELIVER, slot)
                    else:
                        self._pending_del.append((tt, slot))
                        if self._pend_min is None or tt < self._pend_min:
                            self._pend_min = tt
                else:
                    self._p_leg[slot] = 1
                    self._itb_packets += 1
                    self._push_work(int(reinject_at[r]), _REINJECT, slot)

        for midx in np.flatnonzero(contended):
            self._walk_slot(slots[midx], times[midx])

    # -- delivery ----------------------------------------------------------

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
            check(0 <= self._p_leg[slot] < len(info[0].legs),
                  f"slot {slot}: leg index {self._p_leg[slot]} outside "
                  f"its {len(info[0].legs)}-leg route")
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
                {"pid": self._p_info[s][5], "src": self._p_info[s][1],
                 "dst": self._p_info[s][2], "leg": self._p_leg[s]}
                for s in live[:64]],
            "channel_owners": [],
            "wait_for": [],
            "work_heap": len(self._work),
            "next_work_ps": self._work[0][0] if self._work else None,
            "pending_deliveries": len(self._pending_del),
            "busy_horizon_ps": max(self._busy, default=0),
        }

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
