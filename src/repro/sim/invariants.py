"""Runtime invariant auditor and stall (deadlock) diagnoser.

The engines maintain conservation laws that no summary statistic
checks: every generated message is delivered, dropped, or physically
present in the fabric; channel reservations never exceed the elapsed
measurement window; a held channel's arbiter agrees about its owner;
and every byte admitted to an in-transit buffer pool is eventually
credited back.  Silent violations (a leaked flit, a double-released
channel, a pool that drifts negative) corrupt exactly the statistics
the paper's figures are built from, and they get harder to spot the
larger the fabric -- the ROADMAP item-5 scale sweep to 512--1024
switches is the forcing function for checking them at runtime.

:func:`audit` runs the full invariant suite against a live network,
whatever its engine: the base ledger checks run here, the structural
walk is delegated to the engine through the abstract
``NetworkModel._audit_engine`` (and
``_audit_drained`` for the stricter quiescent-state laws).  The
runner audits at the window boundaries of every run started with
``check_invariants=True``; tests sweep the golden matrix through it.

:func:`diagnose_stall` is the other half: when the progress watchdog
trips, it snapshots the blocked state (``_stall_snapshot``), builds
the wait-for graph (blocked worm -> channel it waits on -> that
channel's owner), detects the cycle, and returns a JSON-safe dump --
so a deadlocked configuration *names its cycle* in the
:class:`~repro.sim.engine.DeadlockError` instead of wedging with a
bare "no progress" message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..routing.table import find_cycle
from .base import NetworkModel

__all__ = ["InvariantViolation", "InvariantReport", "audit",
           "diagnose_stall", "find_wait_cycle"]


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulation core does not hold."""


@dataclass
class InvariantReport:
    """Outcome of one :func:`audit` pass over a live network."""

    #: engine registry name
    engine: str
    #: simulated time of the audit, picoseconds
    t_ps: int
    #: individual invariant checks evaluated
    checks: int = 0
    #: human-readable description of every failed check
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> "InvariantReport":
        """Raise :class:`InvariantViolation` listing every failure."""
        if self.violations:
            raise InvariantViolation(
                f"{self.engine} engine failed {len(self.violations)} of "
                f"{self.checks} invariant checks at t={self.t_ps}:\n  "
                + "\n  ".join(self.violations))
        return self

    def to_dict(self) -> dict:
        return {"engine": self.engine, "t_ps": self.t_ps,
                "checks": self.checks, "violations": list(self.violations)}


def audit(network: NetworkModel, drained: bool = False) -> InvariantReport:
    """Run every runtime invariant against ``network`` *now*.

    The base ledger laws (message conservation between ``generated``,
    ``delivered``, ``dropped`` and ``in_flight``) run for every engine;
    the engine
    adds its structural laws (channel/arbiter agreement, occupancy
    bounds, ITB byte-accounting) through ``_audit_engine``.  With
    ``drained=True`` the stricter quiescent-state laws run too: zero
    packets in flight, empty buffers, free arbiters, zeroed pools --
    the state every run must reach once its traffic stops.
    """
    report = InvariantReport(engine=network.name, t_ps=network.sim.now)

    def check(condition: bool, description: str) -> None:
        report.checks += 1
        if not condition:
            report.violations.append(description)

    n = network
    check(n.generated >= 0, f"ledger: negative generated ({n.generated})")
    check(n.delivered >= 0, f"ledger: negative delivered ({n.delivered})")
    check(n.dropped >= 0, f"ledger: negative dropped ({n.dropped})")
    check(n.delivered + n.dropped <= n.generated,
          f"conservation: delivered ({n.delivered}) + dropped "
          f"({n.dropped}) exceed generated ({n.generated})")
    check(n.dropped_unroutable <= n.dropped,
          f"ledger: unroutable drops ({n.dropped_unroutable}) exceed "
          f"total drops ({n.dropped})")
    n._audit_engine(check)
    if drained:
        check(n.in_flight == 0,
              f"drained: {n.in_flight} packets still in flight")
        n._audit_drained(check)
    return report


def find_wait_cycle(edges: Dict[int, int]) -> Optional[List[int]]:
    """A cycle in the functional wait-for graph, or ``None``.

    ``edges`` maps each blocked packet to the packet holding the
    resource it waits on (at most one outgoing edge per node -- a
    wormhole header waits on exactly one output port).  The search is
    :func:`repro.routing.table.find_cycle`, the routine that proves a
    routing table's channel dependencies acyclic, so the static check
    and this diagnosis cannot disagree about what a cycle is; it
    returns the cycle's node list starting from its smallest pid, so
    the same deadlock always renders identically.
    """
    return find_cycle({waiter: (owner,) for waiter, owner in edges.items()})


def diagnose_stall(network: NetworkModel) -> dict:
    """JSON-safe diagnosis of a stalled network.

    Snapshots the engine's blocked state (channel owners, blocked
    worms with their held channels and route legs), derives the
    wait-for graph and names the detected cycle.  The dict is attached
    to the :class:`~repro.sim.engine.DeadlockError` the watchdog
    raises and rendered into its message.
    """
    snapshot = network._stall_snapshot()
    edges: Dict[int, int] = {}
    via: Dict[int, dict] = {}
    for edge in snapshot.get("wait_for", []):
        if edge.get("owner") is not None:
            edges[edge["waiter"]] = edge["owner"]
            via[edge["waiter"]] = edge
    cycle = find_wait_cycle(edges)
    diagnosis = {
        "engine": network.name,
        "t_ps": network.sim.now,
        "generated": network.generated,
        "delivered": network.delivered,
        "dropped": network.dropped,
        "in_flight": network.in_flight,
        "wait_for_cycle": [],
    }
    diagnosis.update(snapshot)
    if cycle:
        diagnosis["wait_for_cycle"] = [
            {"waiter": pid,
             "waits_on": via[pid].get("channel"),
             "held_by": edges[pid]}
            for pid in cycle]
    return diagnosis
