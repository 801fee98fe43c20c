"""Directed channels: the unit of reservation and utilisation accounting.

Myrinet cables are full duplex; the simulator models every direction as
an independent :class:`Channel` guarded by a demand-slotted round-robin
arbiter (the switch output port, or the NIC send DMA for injection
channels).  Three kinds exist:

* ``INJ`` -- NIC to switch (host injection / in-transit re-injection);
* ``NET`` -- switch to switch (one per direction of each cable);
* ``DEL`` -- switch to NIC (delivery / in-transit ejection).

Channels accumulate the statistics behind the paper's link-utilisation
figures: ``transfer_flits`` (flits actually moved -- utilisation) and
``reserved_ps`` (time the channel was owned by some packet, which in a
wormhole network exceeds transfer time whenever packets block
downstream; the paper's "links idle due to flow control" remark is the
difference between the two).

The packet engine may leave a channel's release *deferred*: recorded
on the channel (:attr:`Channel.deferred`) instead of scheduled, and
applied by whoever next reads or requests the channel (see
:mod:`repro.sim.network`).
"""

from __future__ import annotations

from .arbiter import RoundRobinArbiter

#: channel kinds
INJ, NET, DEL = 0, 1, 2

KIND_NAMES = {INJ: "inj", NET: "net", DEL: "del"}


class Channel:
    """One directed channel plus its arbiter and statistics."""

    __slots__ = ("cid", "kind", "src", "dst", "link_id", "arbiter",
                 "transfer_flits", "reserved_ps", "last_reset_ps", "dead",
                 "deferred")

    def __init__(self, cid: int, kind: int, src: int, dst: int,
                 link_id: int = -1) -> None:
        self.cid = cid
        self.kind = kind
        #: source node id (host id for INJ, switch id otherwise)
        self.src = src
        #: destination node id (host id for DEL, switch id otherwise)
        self.dst = dst
        #: physical cable id for NET channels (-1 for host cables)
        self.link_id = link_id
        self.arbiter = RoundRobinArbiter()
        self.transfer_flits = 0
        self.reserved_ps = 0
        self.last_reset_ps = 0
        #: cable killed by a dynamic fault plan; headers arriving at a
        #: dead channel drop instead of requesting it
        self.dead = False
        #: the owner's release, when nobody waited for it as it was
        #: due: ``(rel_ps, seq, pkt, wire, granted_ps)``, ``seq`` being
        #: the event sequence number the release reserved (packet
        #: engine only; None otherwise)
        self.deferred = None

    def record_passage(self, flits: int, granted_ps: int,
                       released_ps: int, flit_cycle_ps: int = 0) -> None:
        """Account one packet crossing this channel.

        A packet granted the channel before the last stats reset but
        released after it only reserved the channel for the part of the
        hold inside the measurement window, so the grant time is
        clamped to the reset time (otherwise ``reserved_fraction`` can
        exceed 1 for boundary-straddling packets).  The flits stream at
        link rate up to the release instant, so when ``flit_cycle_ps``
        is given, flits that crossed before the reset are likewise
        excluded (keeping utilisation <= reserved per channel, matching
        the flit engine's count-at-crossing accounting).
        """
        if granted_ps < self.last_reset_ps:
            granted_ps = self.last_reset_ps
            if flit_cycle_ps > 0:
                in_window = (released_ps - granted_ps) // flit_cycle_ps
                if flits > in_window:
                    flits = in_window
        self.transfer_flits += flits
        self.reserved_ps += released_ps - granted_ps

    def reset_stats(self, now_ps: int = 0) -> None:
        """Zero the counters (called at the end of warm-up);
        ``now_ps`` marks the start of the new measurement window."""
        self.transfer_flits = 0
        self.reserved_ps = 0
        self.last_reset_ps = now_ps

    def utilization(self, window_ps: int, flit_cycle_ps: int) -> float:
        """Fraction of ``window_ps`` spent actually transferring flits."""
        return self.transfer_flits * flit_cycle_ps / window_ps

    def reserved_fraction(self, window_ps: int) -> float:
        """Fraction of ``window_ps`` the channel was reserved."""
        return self.reserved_ps / window_ps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Channel({self.cid} {KIND_NAMES[self.kind]} "
                f"{self.src}->{self.dst})")
