"""Campaign layer: whole figures/tables as lists of cached points.

The :class:`Executor` is the one way a study runs: ``sweep_rates``,
every figure/table function and every study take one (``None`` is
resolved, in :func:`repro.experiments.sweep.resolve_executor`, to a
plain ``Executor()``), the CLI builds its from flags.  It composes
the two lower layers:

* every task is first looked up in the :class:`~.store.ResultStore`
  (when one is attached) -- an already-completed point costs one file
  read and **zero** ``run_simulation`` calls;
* the misses are fanned out through the pool -- one lease scheduler
  (:mod:`~.lease`) over inline, forked-local or remote TCP slots --
  and each result is persisted the moment it arrives, so an
  interrupted or crashed campaign resumes from exactly where it
  stopped.

The executor's :class:`ExecutorStats` is the campaign's one ledger:
every finished point is booked there once, and the booking returns the
point's event (completed/total, status, ETA) as a plain dict, which
the executor hands to its ``on_point`` callable, if any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..config import SimConfig, check_run_options
from ..metrics.summary import RunSummary
from ..registry import UsageError
from .fabric import FabricPool
from .lease import LeasePool
from .pool import POINT_TASK_FN, Task, TaskResult, WorkerPool
from .store import ResultStore

__all__ = ["CampaignError", "Executor", "ExecutorStats", "Point"]


class CampaignError(RuntimeError):
    """One or more points failed after all retries."""


@dataclass(frozen=True)
class Point:
    """One simulation point of a campaign: plain data throughout, so
    ``runner_kwargs`` may name only :data:`repro.config.RUN_OPTIONS`."""

    point_id: str
    config: SimConfig
    runner_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_run_options(self.runner_kwargs)

    def payload(self) -> Dict[str, Any]:
        return {"config": self.config.to_dict(),
                "runner_kwargs": dict(self.runner_kwargs)}

    def describe(self) -> str:
        return (f"{self.config.label()} @ "
                f"{self.config.injection_rate:.4g} "
                f"({self.config.topology}/{self.config.traffic})")


@dataclass
class ExecutorStats:
    """The campaign's ledger: running totals over an executor's lifetime.

    :meth:`record` books one finished point and returns its point event,
    the plain dict a caller renders (the CLI's stderr line) or streams
    (``repro serve``).  ETA is the mean wall time of the *simulated*
    points so far times the remaining count, spread over ``slots``
    parallel slots -- cache hits are treated as instantaneous.
    """

    simulated: int = 0
    cached: int = 0
    failed: int = 0
    #: points announced so far (every ``run_tasks`` call adds its own)
    total: int = 0
    #: how many points run at once (the pool's ``workers``)
    slots: int = 1
    #: summed wall time of the simulated points, seconds
    simulated_s: float = 0.0

    def record(self, label: str, status: str,
               elapsed_s: float = 0.0) -> Dict[str, Any]:
        """Book one finished point (``cached``, ``done`` or ``FAILED``)
        and return its event; ``completed`` counts every finished
        point, failures included."""
        if status == "done":
            self.simulated += 1
            self.simulated_s += elapsed_s
        elif status == "cached":
            self.cached += 1
        else:
            self.failed += 1
        completed = self.simulated + self.cached + self.failed
        event = {"event": "point", "completed": completed,
                 "total": self.total, "label": label, "status": status,
                 "elapsed_s": round(elapsed_s, 4)}
        remaining = self.total - completed
        if self.simulated and remaining > 0:
            mean = self.simulated_s / self.simulated
            event["eta_s"] = round(
                mean * remaining / min(self.slots, remaining), 1)
        return event

    def oneline(self) -> str:
        return (f"{self.simulated} simulated, {self.cached} from cache"
                + (f", {self.failed} failed" if self.failed else ""))


class Executor:
    """Cache-aware parallel task runner (the orchestrator's front door).

    ``store=None`` disables caching entirely.  ``on_point``, when
    given, receives each finished point's event
    (:meth:`ExecutorStats.record`) the moment the point finishes.

    Every other keyword goes to the pool, which defaults and checks it:
    without ``fabric`` a :class:`~repro.orchestrator.pool.WorkerPool`
    (``workers``, default 1 -- in-process, still with store lookups);
    with ``fabric="host:port,..."`` a
    :class:`~repro.orchestrator.fabric.FabricPool`, one worker per
    address, whose ``tls_ca`` pins every worker connection to the
    given PEM CA bundle -- workers must serve the matching certificate
    (``repro fabric worker --tls ...``).  Naming ``tls_ca`` without
    ``fabric``, or ``workers`` with it, is refused.  ``timeout_s``,
    ``retries`` and ``retry_backoff_s`` mean the same either way --
    both are one scheduler.  Everything above this class -- sweeps,
    experiments, tournaments, the CLI -- is oblivious to which pool
    executes the points.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 on_point: Optional[Callable[[Dict[str, Any]], None]] = None,
                 fabric: Optional[str] = None, **pool_kwargs: Any):
        if fabric is None:
            if "tls_ca" in pool_kwargs:
                raise UsageError("tls_ca applies to fabric workers only")
            self.pool: LeasePool = WorkerPool(**pool_kwargs)
        else:
            if "workers" in pool_kwargs:
                raise UsageError("workers applies to local workers only; "
                                 "a fabric runs one per address")
            self.pool = FabricPool(fabric, **pool_kwargs)
        self.store = store
        self.on_point = on_point
        self.stats = ExecutorStats(slots=self.pool.workers)

    @property
    def workers(self) -> int:
        return self.pool.workers

    # -- generic task execution ----------------------------------------

    def run_tasks(self, fn: str, payloads: Sequence[Dict[str, Any]],
                  labels: Optional[Sequence[str]] = None) -> List[Any]:
        """Run ``fn`` over every payload, store-first, in input order.

        ``fn`` is a task kind (a name in :data:`~.lease.TASKS`);
        payloads and results must be JSON-safe.  Raises
        :class:`CampaignError` if any task still fails after the pool's
        retries.
        """
        labels = list(labels) if labels is not None else \
            [f"{fn}#{i}" for i in range(len(payloads))]
        self.stats.total += len(payloads)

        def finished(i: int, status: str, elapsed_s: float = 0.0) -> None:
            event = self.stats.record(labels[i], status, elapsed_s)
            if self.on_point is not None:
                self.on_point(event)

        results: Dict[int, Any] = {}
        misses: List[int] = []
        keys: Dict[int, str] = {}
        for i, payload in enumerate(payloads):
            if self.store is not None:
                key = self.store.key(fn, payload)
                keys[i] = key
                record = self.store.get(key)
                if record is not None:
                    results[i] = record["result"]
                    finished(i, "cached")
                    continue
            misses.append(i)

        failures: List[str] = []
        if misses:
            tasks = [Task(task_id=str(i), fn=fn, payload=payloads[i])
                     for i in misses]

            def on_result(res: TaskResult) -> None:
                i = int(res.task_id)
                if res.ok:
                    results[i] = res.value
                    if self.store is not None:
                        self.store.put(keys.get(i)
                                       or self.store.key(fn, payloads[i]),
                                       fn, payloads[i], res.value,
                                       elapsed_s=res.elapsed_s)
                    finished(i, "done", res.elapsed_s)
                else:
                    failures.append(f"{labels[i]}: {res.error}")
                    finished(i, "FAILED")

            self.pool.run(tasks, on_result=on_result)

        if failures:
            raise CampaignError(
                f"{len(failures)} of {len(payloads)} points failed:\n"
                + "\n".join(failures))
        return [results[i] for i in range(len(payloads))]

    # -- simulation points ---------------------------------------------

    def run_points(self, points: Sequence[Point]) -> List[RunSummary]:
        """Run simulation points (store-first), in input order."""
        values = self.run_tasks(POINT_TASK_FN,
                                [p.payload() for p in points],
                                labels=[p.describe() for p in points])
        return [RunSummary.from_dict(v) for v in values]

    def run_configs(self, configs: Sequence[SimConfig],
                    **runner_kwargs: Any) -> List[RunSummary]:
        """Convenience: one point per config, shared runner kwargs."""
        points = [Point(point_id=str(i), config=cfg,
                        runner_kwargs=runner_kwargs)
                  for i, cfg in enumerate(configs)]
        return self.run_points(points)
