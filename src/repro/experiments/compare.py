"""Statistically grounded comparison of two configurations.

``compare_configs`` runs both configurations over several independent
seeds, forms 95 % t-intervals over the per-seed average latencies and
accepted-traffic values, and declares a winner only when the intervals
separate.  This is what "ITB-SP achieves slightly lower latency than
ITB-RR" should mean quantitatively -- the harness uses it to avoid
over-reading single-run noise, and `examples/` demonstrates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..config import SimConfig
from ..metrics.stats import ConfidenceInterval, replication_interval
from .sweep import resolve_executor


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of an A/B comparison across seeds."""

    label_a: str
    label_b: str
    latency_a: ConfidenceInterval
    latency_b: ConfidenceInterval
    accepted_a: ConfidenceInterval
    accepted_b: ConfidenceInterval
    seeds: Tuple[int, ...]

    @property
    def latency_verdict(self) -> str:
        """``"a"``, ``"b"`` (lower latency wins) or ``"tie"`` when the
        intervals overlap."""
        if self.latency_a.overlaps(self.latency_b):
            return "tie"
        return "a" if self.latency_a.mean < self.latency_b.mean else "b"

    @property
    def throughput_verdict(self) -> str:
        """``"a"``, ``"b"`` (higher accepted traffic wins) or ``"tie"``."""
        if self.accepted_a.overlaps(self.accepted_b):
            return "tie"
        return "a" if self.accepted_a.mean > self.accepted_b.mean else "b"

    def render(self) -> str:
        def fmt(ci: ConfidenceInterval, unit: str) -> str:
            return f"{ci.mean:10.1f} +- {ci.half_width:7.1f} {unit}"

        lines = [
            f"{self.label_a} vs {self.label_b} "
            f"({len(self.seeds)} seeds, 95% t-intervals)",
            f"  latency : {self.label_a:10s} {fmt(self.latency_a, 'ns')}",
            f"            {self.label_b:10s} {fmt(self.latency_b, 'ns')}"
            f"   -> {self._describe(self.latency_verdict, 'lower latency')}",
            f"  accepted: {self.label_a:10s} "
            f"{self.accepted_a.mean:8.4f} +- {self.accepted_a.half_width:6.4f}",
            f"            {self.label_b:10s} "
            f"{self.accepted_b.mean:8.4f} +- {self.accepted_b.half_width:6.4f}"
            f"   -> {self._describe(self.throughput_verdict, 'higher throughput')}",
        ]
        return "\n".join(lines)

    def _describe(self, verdict: str, metric: str) -> str:
        if verdict == "tie":
            return f"indistinguishable {metric}"
        winner = self.label_a if verdict == "a" else self.label_b
        return f"{winner} has {metric}"


def compare_configs(cfg_a: SimConfig, cfg_b: SimConfig,
                    seeds: Sequence[int] = (1, 2, 3, 4, 5),
                    executor=None, **runner_kwargs) -> ComparisonResult:
    """Run both configurations over ``seeds`` and compare.

    All runs are one batch of ``executor`` (``None`` is
    :func:`~.sweep.resolve_executor`'s plain one), so they spread over
    its workers and land in its result store; ``runner_kwargs`` must
    be plain data.  Raises :class:`ValueError` when any run delivers
    no messages (the measurement window is then too short to compare
    anything).
    """
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    runs = resolve_executor(executor).run_configs(
        [cfg.with_overrides(seed=seed)
         for cfg in (cfg_a, cfg_b) for seed in seeds], **runner_kwargs)
    for s in runs:
        if s.avg_latency_ns is None:
            raise ValueError(
                f"{s.config.label()} seed {s.config.seed}: nothing "
                f"delivered; lengthen the measurement window")
    lat = [s.avg_latency_ns for s in runs]
    acc = [s.accepted_flits_ns_switch for s in runs]
    n = len(seeds)
    return ComparisonResult(
        cfg_a.label(), cfg_b.label(),
        replication_interval(lat[:n]), replication_interval(lat[n:]),
        replication_interval(acc[:n]), replication_interval(acc[n:]),
        tuple(seeds))
