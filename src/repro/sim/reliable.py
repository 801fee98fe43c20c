"""End-to-end reliable delivery and online route reconfiguration.

PR 4's fault layer makes the fabric *lossy*: a link death drops the
worms it strands and severs pairs whose every route crossed it.  Real
Myrinet/GM hides both from applications -- the NIC firmware keeps
per-connection sequence numbers, acknowledges deliveries, retransmits
on timeout, and rebuilds its routing tables when the mapper detects a
topology change.  This module reproduces that recovery story on top of
any engine declaring :data:`~repro.sim.base.CAP_RELIABLE_DELIVERY`:

* :class:`ReliableTransport` -- the GM-style sender/receiver protocol:
  per-pair sequence numbers (:class:`~repro.sim.nic.MessageSequencer`),
  a delivery-ACK path modelled as an out-of-band control message with
  route-proportional latency, per-message retransmission timers with
  exponential backoff and a bounded attempt budget, receiver-side
  duplicate suppression, and failover to the next route alternative
  after ``failover_after`` consecutive failures on the same route.

* :class:`ReconfigurationManager` -- the mapper: after a configurable
  detection latency following each link death it recomputes the whole
  routing stack (spanning tree, up*/down* orientation, UP/DOWN or ITB
  tables) on the surviving graph and hot-swaps the NIC tables mid-run
  (:meth:`~repro.sim.base.NetworkModel.swap_tables`).  PR 4's static
  blacklist survives as the ``"blacklist"`` policy; when a failure
  partitions the fabric the manager falls back to it, since routing is
  undefined across a partition.

Simplifications, stated openly: ACKs travel out-of-band (they occupy
no channel bandwidth and are never lost -- GM piggybacks ACKs on tiny
control packets whose load is negligible next to the data stream), and
the receiver's duplicate window grows monotonically (fine for bounded
simulated runs).  Everything else -- what gets dropped, when, and what
a retransmission experiences -- is the engines' full fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..canon import PlainData
from ..routing.schemes import compute_tables
from ..topology.mutate import without_links_mapped
from ..units import ns
from .base import (CAP_DYNAMIC_FAULTS, CAP_RELIABLE_DELIVERY,
                   NetworkModel)
from .nic import MessageSequencer
from .packet import Packet

MessageCallback = Callable[[Packet], None]

#: policies for reacting to a link death
RECONFIG_POLICIES = ("reconfigure", "blacklist")


@dataclass(frozen=True)
class ReliableParams(PlainData):
    """Tuning of the retransmission protocol (all times picoseconds)."""

    #: base retransmission timeout for a message's first attempt
    timeout_ps: int = ns(20_000)
    #: multiplier applied to the timeout of each further attempt
    backoff: float = 2.0
    #: total send attempts per message before declaring permanent loss
    max_attempts: int = 12
    #: consecutive failed attempts on one route before failing over to
    #: the next table alternative (0 disables failover)
    failover_after: int = 2
    #: fixed NIC processing delay added to every delivery ACK
    ack_delay_ps: int = ns(200)

    def __post_init__(self) -> None:
        if self.timeout_ps <= 0:
            raise ValueError("timeout_ps must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.failover_after < 0:
            raise ValueError("failover_after must be non-negative")
        if self.ack_delay_ps < 0:
            raise ValueError("ack_delay_ps must be non-negative")


@dataclass(frozen=True)
class ReconfigParams(PlainData):
    """Tuning of the online reconfiguration policy."""

    #: how to react to a link death: ``"reconfigure"`` recomputes and
    #: hot-swaps the tables, ``"blacklist"`` keeps PR 4's static
    #: filtering of the original tables
    policy: str = "reconfigure"
    #: delay between a link dying and the recomputed tables landing in
    #: the NICs (mapper detection + table distribution)
    detection_latency_ps: int = ns(5_000)

    def __post_init__(self) -> None:
        if self.policy not in RECONFIG_POLICIES:
            raise ValueError(
                f"unknown reconfiguration policy {self.policy!r}; "
                f"expected one of {RECONFIG_POLICIES}")
        if self.detection_latency_ps < 0:
            raise ValueError("detection_latency_ps must be non-negative")


class _Message:
    """Sender-side state of one application message."""

    __slots__ = ("seq", "src", "dst", "nbytes", "created_ps", "attempts",
                 "acked", "failed", "delivered_ps", "consecutive_failures",
                 "forced_index", "last_alt_index", "retry_scheduled")

    def __init__(self, seq: int, src: int, dst: int, nbytes: int,
                 created_ps: int) -> None:
        self.seq = seq
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.created_ps = created_ps
        #: send attempts so far (attempt ids are 1-based)
        self.attempts = 0
        self.acked = False
        self.failed = False
        self.delivered_ps: Optional[int] = None
        self.consecutive_failures = 0
        #: table index forced by failover; ``None`` = ask the policy
        self.forced_index: Optional[int] = None
        #: table index of the last attempt's route (failover start)
        self.last_alt_index = 0
        #: a drop-triggered retry is already in the event queue
        self.retry_scheduled = False


class ReliableTransport:
    """GM-style reliable message delivery over one network engine.

    The transport fronts the network for traffic generation (it exposes
    the same ``send(src, dst)`` entry point), allocates a sequence
    number per message, and keeps retransmitting until the delivery is
    acknowledged or the attempt budget runs out.  A drop notification
    from the engine (worm stranded on a dying link, or refusal at the
    source) short-circuits the wait: the retry fires one base timeout
    after the drop instead of the current attempt's full backed-off
    timer.  Counter semantics after a drained run::

        messages == acked + permanent_losses
        delivered == acked            (every delivery gets its ACK)
        recovered <= delivered        (delivered on attempt >= 2)
    """

    def __init__(self, network: NetworkModel,
                 params: Optional[ReliableParams] = None) -> None:
        network.require(CAP_RELIABLE_DELIVERY)
        self.network = network
        self.sim = network.sim
        self.params = params or ReliableParams()
        self.sequencer = MessageSequencer()

        #: messages handed to :meth:`send`
        self.messages = 0
        #: messages whose delivery ACK reached the sender
        self.acked = 0
        #: messages whose first copy reached the receiver
        self.delivered = 0
        #: messages delivered on a retransmitted attempt
        self.recovered = 0
        #: send attempts beyond each message's first
        self.retransmissions = 0
        #: redundant copies discarded by the receiver
        self.duplicates = 0
        #: messages abandoned after the attempt budget
        self.permanent_losses = 0

        #: live packet id -> (message, attempt id)
        self._pid_msg: Dict[int, Tuple[_Message, int]] = {}
        self._message_callbacks: List[MessageCallback] = []
        network.add_delivery_callback(self._on_network_delivery)
        network.add_drop_callback(self._on_drop)

    # -- sending -----------------------------------------------------------

    def add_message_callback(self, cb: MessageCallback) -> None:
        """``cb(packet)`` runs once per message, at the instant its
        *first* copy is delivered (duplicates are suppressed before the
        callbacks -- this is where latency collectors belong)."""
        self._message_callbacks.append(cb)

    def send(self, src_host: int, dst_host: int,
             nbytes: Optional[int] = None) -> _Message:
        """Accept one application message for reliable delivery."""
        msg = _Message(self.sequencer.next_seq(src_host, dst_host),
                       src_host, dst_host,
                       nbytes if nbytes is not None
                       else self.network.message_bytes,
                       self.sim.now)
        self.messages += 1
        self._attempt(msg)
        return msg

    @property
    def outstanding(self) -> int:
        """Messages neither acknowledged nor abandoned yet."""
        return self.messages - self.acked - self.permanent_losses

    def stats(self) -> Dict[str, int]:
        """Snapshot of the protocol counters (for windowed deltas)."""
        return {"messages": self.messages, "acked": self.acked,
                "delivered": self.delivered, "recovered": self.recovered,
                "retransmissions": self.retransmissions,
                "duplicates": self.duplicates,
                "permanent_losses": self.permanent_losses}

    # -- protocol machinery ------------------------------------------------

    def _attempt(self, msg: _Message) -> None:
        msg.attempts += 1
        attempt_id = msg.attempts
        now = self.sim.now
        pkt = self.network.send(msg.src, msg.dst, msg.nbytes,
                                route_index=msg.forced_index)
        if pkt is None:
            # refused at the source: no surviving route under the
            # active policy -- treat like an instantly dropped attempt
            if attempt_id >= self.params.max_attempts:
                self._fail(msg)
                return
            msg.retry_scheduled = True
            self.sim.at(now + self.params.timeout_ps, self._drop_retry,
                        msg, attempt_id)
            return
        # message latency spans the whole exchange, not one attempt
        pkt.created_ps = msg.created_ps
        msg.last_alt_index = pkt.alt_index
        self._pid_msg[pkt.pid] = (msg, attempt_id)
        delay = int(self.params.timeout_ps
                    * self.params.backoff ** (attempt_id - 1))
        self.sim.at(now + delay, self._on_timeout, msg, attempt_id)

    def _on_network_delivery(self, pkt: Packet) -> None:
        entry = self._pid_msg.pop(pkt.pid, None)
        if entry is None:
            return
        msg, _attempt_id = entry
        first = self.sequencer.accept(msg.src, msg.dst, msg.seq)
        if first:
            self.delivered += 1
            msg.delivered_ps = pkt.delivered_ps
            if msg.attempts > 1:
                self.recovered += 1
            for cb in self._message_callbacks:
                cb(pkt)
        else:
            self.duplicates += 1
        # the receiver ACKs every copy (idempotent at the sender)
        self.sim.at(self.sim.now + self._ack_latency_ps(pkt),
                    self._on_ack, msg)

    def _on_ack(self, msg: _Message) -> None:
        if msg.acked or msg.failed:
            return
        msg.acked = True
        self.acked += 1

    def _on_timeout(self, msg: _Message, attempt_id: int) -> None:
        if (msg.acked or msg.failed or attempt_id != msg.attempts
                or msg.retry_scheduled):
            return
        self._retry(msg)

    def _on_drop(self, pkt: Packet, t_ps: int) -> None:
        entry = self._pid_msg.pop(pkt.pid, None)
        if entry is None:
            return
        msg, attempt_id = entry
        if (msg.acked or msg.failed or attempt_id != msg.attempts
                or msg.retry_scheduled):
            return
        # confirmed loss: retry after one base timeout instead of the
        # attempt's full backed-off timer (the throttle keeps a dead
        # route from burning the budget before reconfiguration lands)
        msg.retry_scheduled = True
        self.sim.at(t_ps + self.params.timeout_ps, self._drop_retry,
                    msg, attempt_id)

    def _drop_retry(self, msg: _Message, attempt_id: int) -> None:
        msg.retry_scheduled = False
        if msg.acked or msg.failed or attempt_id != msg.attempts:
            return
        self._retry(msg)

    def _retry(self, msg: _Message) -> None:
        msg.consecutive_failures += 1
        p = self.params
        if p.failover_after and msg.consecutive_failures % p.failover_after == 0:
            # k consecutive failures on this route: force the next
            # table alternative (modulo wrap happens at selection)
            base = (msg.forced_index if msg.forced_index is not None
                    else msg.last_alt_index)
            msg.forced_index = base + 1
        if msg.attempts >= p.max_attempts:
            self._fail(msg)
            return
        self.retransmissions += 1
        self._attempt(msg)

    def _fail(self, msg: _Message) -> None:
        msg.failed = True
        self.permanent_losses += 1

    def _ack_latency_ps(self, pkt: Packet) -> int:
        """Out-of-band ACK flight time: NIC processing plus one header
        crossing back along the delivery route."""
        p = self.network.params
        hops = pkt.switch_hops
        return (self.params.ack_delay_ps
                + (hops + 2) * p.link_prop_ps
                + (hops + 1) * p.routing_delay_ps)


class ReconfigurationManager:
    """The mapper: recompute and hot-swap routing tables after faults.

    Under the ``"reconfigure"`` policy the manager switches the engine
    out of PR 4's blacklist filtering (the tables themselves become the
    source of truth again) and, one detection latency after each link
    death, rebuilds the full routing stack on the surviving graph.  The
    recomputed tables live in the mutated graph's renumbered link-id
    space; they are translated back through the removal's id map before
    the swap, so the running engine keeps addressing its original
    cables.  A failure that partitions the switch graph cannot be
    routed around -- the manager then re-enables the blacklist and
    leaves the last good tables in place (severed pairs fail at the
    source; surviving pairs keep working).
    """

    def __init__(self, network: NetworkModel,
                 params: Optional[ReconfigParams] = None,
                 max_routes_per_pair: int = 10) -> None:
        network.require(CAP_DYNAMIC_FAULTS)
        network.require(CAP_RELIABLE_DELIVERY)
        self.network = network
        self.params = params or ReconfigParams()
        self.max_routes_per_pair = max_routes_per_pair

        #: table swaps performed so far
        self.reconfigurations = 0
        #: the manager hit a partition and re-enabled the blacklist
        self.fallback_blacklist = False
        #: dead-link set the current tables were computed for
        self._reconfigured_for: FrozenSet[int] = frozenset()

        if self.params.policy == "reconfigure":
            network.blacklist_on_fault = False
            network.add_link_death_callback(self._on_link_death)

    def _on_link_death(self, link_id: int, t_ps: int) -> None:
        self.network.sim.at(t_ps + self.params.detection_latency_ps,
                            self._reconfigure)

    def _reconfigure(self) -> None:
        net = self.network
        dead = frozenset(net.dead_links)
        if dead == self._reconfigured_for:
            return  # a later fault's event already covered this set
        self._reconfigured_for = dead
        try:
            removal = without_links_mapped(net.graph, sorted(dead))
        except ValueError:
            # partition: no table can route around it; fall back to
            # blacklisting on top of the last good tables
            net.blacklist_on_fault = True
            net._routable_cache.clear()
            self.fallback_blacklist = True
            return
        tables = compute_tables(removal.graph, net.tables.scheme,
                                root=net.tables.root,
                                max_routes_per_pair=self.max_routes_per_pair)
        inverse = {new: old for old, new in removal.link_map.items()}
        net.swap_tables(tables.with_remapped_links(inverse))
        self.reconfigurations += 1
