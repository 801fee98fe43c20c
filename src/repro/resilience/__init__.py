"""Fault-injection resilience studies.

The paper motivates source routing with reconfiguration cost: when the
topology changes, only the NICs' route tables need recomputing.  This
package quantifies the other side of that argument -- how gracefully
the schemes degrade while running on a broken fabric:

* :mod:`sampling` draws deterministic link/switch failure sets from a
  seed, keeping the switch graph connected;
* :mod:`campaign` rebuilds routing (spanning tree, up*/down*
  orientation, routes, ITB tables) for every failure configuration via
  the ``"mutated"`` topology builder, runs per-configuration
  saturation searches and link-statistics points through the
  orchestrator, and reduces them to graceful-degradation metrics
  against the healthy baseline;
* :mod:`recovery` measures the transient: a cable dies under live
  traffic with reliable delivery on, comparing PR 4's static blacklist
  against online reconfiguration (time-to-recover, retransmission and
  duplicate cost, permanent losses).

Each study's table renderer sits beside its report type, and each
registers itself as a ``repro experiment`` (``resilience``,
``recovery``).

Dynamic mid-run faults (a cable dying under live traffic) live in
:mod:`repro.sim.faults`; the protocol machinery that survives them
(retransmission, ACKs, table hot-swap) in :mod:`repro.sim.reliable`.
"""

from .campaign import (ResilienceCell, ResilienceReport,
                       render_resilience_table, run_resilience)
from .recovery import (RecoveryCell, RecoveryReport, render_recovery_table,
                       run_recovery)
from .sampling import sample_failed_links

__all__ = ["ResilienceCell", "ResilienceReport", "run_resilience",
           "RecoveryCell", "RecoveryReport", "run_recovery",
           "render_resilience_table", "render_recovery_table",
           "sample_failed_links"]
