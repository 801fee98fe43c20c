"""Latency / throughput accumulation during the measurement window.

The collector registers itself as a delivery callback on the network.
Until :meth:`reset` (called at the end of warm-up) it discards samples;
afterwards every delivered message contributes its payload flits and
its two latencies:

* **latency** -- creation to full delivery (includes source-NIC
  queueing; this is what diverges at saturation);
* **network latency** -- first flit injected to full delivery (the
  paper's definition: "the elapsed time between the injection of a
  message into the network at the source host until it is delivered").

Batch engines (:data:`~repro.sim.base.CAP_BATCH_DELIVERY`) bypass the
per-packet callback and push whole delivery cohorts through
:meth:`record_batch`; both paths feed the same accumulators, so every
derived metric is delivery-path independent.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..sim.packet import Packet


class LatencyCollector:
    """Accumulates delivery statistics; attach via
    ``network.add_delivery_callback(collector.on_delivered)`` or hand
    the collector itself to a batch engine as its delivery sink."""

    def __init__(self, keep_samples: bool = False) -> None:
        #: retain every latency sample (ns-precision percentiles) --
        #: off by default to keep long runs lean
        self.keep_samples = keep_samples
        self.messages = 0
        self.payload_flits = 0
        self.sum_latency_ps = 0
        self.sum_network_latency_ps = 0
        self.max_latency_ps = 0
        self.sum_itbs = 0
        self.samples_ps: List[int] = []
        #: sorted view of ``samples_ps``, rebuilt lazily by
        #: :meth:`percentile_ns` and dropped on every new sample --
        #: repeated percentile queries (tournament cells ask for
        #: p50/p99 per cell) then sort once, not once per call
        self._sorted_samples: Optional[List[int]] = None

    def on_delivered(self, pkt: Packet) -> None:
        lat = pkt.latency_ps()
        self.messages += 1
        self.payload_flits += pkt.payload_bytes
        self.sum_latency_ps += lat
        self.sum_network_latency_ps += pkt.network_latency_ps()
        if lat > self.max_latency_ps:
            self.max_latency_ps = lat
        self.sum_itbs += pkt.num_itbs
        if self.keep_samples:
            self.samples_ps.append(lat)
            self._sorted_samples = None

    def record_batch(self, latency_ps: Sequence[int],
                     network_latency_ps: Sequence[int],
                     payload_bytes: Sequence[int],
                     itbs: Sequence[int]) -> None:
        """Record one delivery cohort (parallel sequences, one entry per
        message).  Semantically identical to calling :meth:`on_delivered`
        once per message, without materialising packets."""
        if not len(latency_ps):
            return
        self.messages += len(latency_ps)
        self.payload_flits += sum(payload_bytes)
        self.sum_latency_ps += sum(latency_ps)
        self.sum_network_latency_ps += sum(network_latency_ps)
        batch_max = max(latency_ps)
        if batch_max > self.max_latency_ps:
            self.max_latency_ps = batch_max
        self.sum_itbs += sum(itbs)
        if self.keep_samples:
            self.samples_ps.extend(int(v) for v in latency_ps)
            self._sorted_samples = None

    def reset(self) -> None:
        """Zero everything (end of warm-up)."""
        self.messages = 0
        self.payload_flits = 0
        self.sum_latency_ps = 0
        self.sum_network_latency_ps = 0
        self.max_latency_ps = 0
        self.sum_itbs = 0
        self.samples_ps.clear()
        self._sorted_samples = None

    # -- derived metrics ----------------------------------------------------

    def avg_latency_ns(self) -> Optional[float]:
        if not self.messages:
            return None
        return self.sum_latency_ps / self.messages / 1_000

    def avg_network_latency_ns(self) -> Optional[float]:
        if not self.messages:
            return None
        return self.sum_network_latency_ps / self.messages / 1_000

    def avg_itbs_per_message(self) -> Optional[float]:
        if not self.messages:
            return None
        return self.sum_itbs / self.messages

    def accepted_flits_ns_switch(self, window_ps: int,
                                 num_switches: int) -> float:
        """Accepted traffic in the paper's unit (payload flits only,
        matching the offered-load definition)."""
        if window_ps <= 0 or num_switches <= 0:
            raise ValueError("window and switch count must be positive")
        return self.payload_flits * 1_000 / (window_ps * num_switches)

    def percentile_ns(self, q: float) -> Optional[float]:
        """Latency percentile (nearest-rank); requires
        ``keep_samples=True``.

        The nearest-rank definition: the smallest sample such that at
        least ``q`` of the data is <= it, i.e. rank ``ceil(q * n)``
        (1-based) with ``q = 0`` mapping to the minimum.
        """
        if not self.keep_samples:
            raise RuntimeError("collector was created with keep_samples=False")
        if not self.samples_ps:
            return None
        if not (0.0 <= q <= 1.0):
            raise ValueError("percentile must be in [0, 1]")
        data = self._sorted_samples
        if data is None:
            data = self._sorted_samples = sorted(self.samples_ps)
        idx = max(0, math.ceil(q * len(data)) - 1)
        return data[idx] / 1_000
