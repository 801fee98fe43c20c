"""Immutable result of one simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..canon import PlainData
from ..config import SimConfig
from .linkstats import LinkUtilization


@dataclass(frozen=True)
class RunSummary(PlainData):
    """Everything the experiment harness needs from a finished run.

    ``accepted_flits_ns_switch`` is the paper's x-axis unit;
    ``avg_latency_ns`` (creation to delivery) its y axis.  A run is
    *saturated* when accepted traffic falls measurably short of offered
    traffic -- the generation backlog grows without bound there, so
    latency figures at saturated points are window-dependent and only
    the throughput is meaningful.  Its :class:`~repro.canon.PlainData`
    form is the result store's record.
    """

    config: SimConfig
    offered_flits_ns_switch: float
    accepted_flits_ns_switch: float
    messages_delivered: int
    messages_generated: int
    avg_latency_ns: Optional[float]
    avg_network_latency_ns: Optional[float]
    max_latency_ns: Optional[float]
    avg_itbs_per_message: Optional[float]
    itb_overflow_count: int
    itb_peak_bytes: int
    link_utilization: Optional[LinkUtilization]
    #: in-flight + source-queued messages gained over the measurement
    #: window (past saturation this grows linearly with time)
    backlog_growth: int = 0
    #: messages lost to dynamic link faults during the measurement
    #: window (dropped in flight, or refused at the source because no
    #: surviving route existed); zero for every fault-free run
    messages_dropped: int = 0
    #: split of ``messages_dropped``: worms stranded inside the fabric
    #: by a dying link (transient loss -- a retransmission can recover)
    dropped_in_flight: int = 0
    #: split of ``messages_dropped``: refusals at the source NIC
    #: because no surviving route existed at send time
    dropped_unroutable: int = 0
    #: reliable-delivery protocol counters (measurement window; all
    #: zero when the reliability layer is off)
    retransmissions: int = 0
    duplicate_deliveries: int = 0
    #: messages abandoned after the retransmission attempt budget --
    #: with online reconfiguration this should stay zero for every
    #: pair the surviving fabric still connects
    permanent_losses: int = 0
    #: messages delivered on a retransmitted attempt (would have been
    #: lost without the reliability layer)
    recovered_messages: int = 0
    #: table swaps performed by online reconfiguration
    reconfigurations: int = 0
    #: first post-fault window whose accepted traffic is back within
    #: the recovery threshold of the pre-fault mean, measured from the
    #: first fault; ``None`` without a fault plan or when the run never
    #: recovers inside the measurement window
    time_to_recover_ns: Optional[float] = None
    #: 99th-percentile message latency (nearest-rank); only populated
    #: when the run was asked to keep per-message samples
    #: (``run_simulation(..., collect_percentiles=True)``), else None
    p99_latency_ns: Optional[float] = None

    @property
    def saturated(self) -> bool:
        """Past the saturation point?

        The signal is backlog growth: below saturation the number of
        in-flight + source-queued messages is bounded, past it the
        excess offered load accumulates linearly.  Delivery counts over
        a finite window fluctuate by O(sqrt(N)), so the threshold is
        three standard deviations (and at least 4 % of the window's
        generation, and at least 8 messages) -- comparing accepted vs
        offered *rates* directly would false-trigger constantly on the
        short bench windows.
        """
        n = self.messages_generated
        if n <= 0:
            return False
        threshold = max(8.0, 0.04 * n, 3.0 * n ** 0.5)
        if self.backlog_growth > threshold:
            return True
        # secondary trigger: queueing delay comparable to the window
        # itself means the backlog is growing even when the message
        # count is too small for the 3-sigma test to see it
        return (self.avg_latency_ns is not None
                and self.avg_latency_ns * 1_000 > self.config.measure_ps / 4)

    def oneline(self) -> str:
        """Compact human-readable summary for reports and examples."""
        lat = (f"{self.avg_latency_ns:9.0f} ns"
               if self.avg_latency_ns is not None else "      n/a")
        sat = " SAT" if self.saturated else ""
        return (f"{self.config.label():8s} offered={self.offered_flits_ns_switch:.4f} "
                f"accepted={self.accepted_flits_ns_switch:.4f} "
                f"lat={lat} itbs/msg="
                f"{self.avg_itbs_per_message if self.avg_itbs_per_message is not None else 0:.2f}"
                f"{sat}")
