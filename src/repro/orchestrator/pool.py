"""Local worker pool: the lease scheduler over inline or forked slots.

Fans independent simulation tasks out across cores.  Queue, retries
and fault policy are :mod:`~repro.orchestrator.lease`'s; this module
only chooses the slots:

* ``workers <= 1`` -- one inline slot: tasks run in the calling process
  and thread, no multiprocessing at all, so single-core environments
  and debuggers see ordinary stack traces;
* otherwise -- up to ``workers`` forked children
  (:class:`~repro.orchestrator.fabric.LocalSlot`), each living for one
  ``run()`` and serving every lease its slot is granted, so it builds
  a routing table once rather than once per task.  One that dies or
  outlives ``timeout_s`` is replaced and its task retried; when
  ``run()`` returns or raises, none is left behind.

Tasks name their worker function as a ``"module:callable"`` string
(resolved inside the worker), taking one JSON-safe payload dict and
returning a JSON-safe result dict.  Keeping the boundary plain-data is
what lets the campaign layer persist every result in the
content-addressed store, and one frame format reach any worker.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..config import SimConfig
from ..experiments.runner import run_simulation
from .fabric import LocalSlot
from .lease import InlineSlot, LeasePool, Task, TaskResult, retry_delay_s

__all__ = ["Task", "TaskResult", "WorkerPool", "retry_delay_s",
           "run_point_task"]


def run_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker function for one simulation point.

    ``payload`` is ``{"config": SimConfig dict, "runner_kwargs":
    plain dict}``; the result is the ``RunSummary`` dict.
    """
    cfg = SimConfig.from_dict(payload["config"])
    kwargs = dict(payload.get("runner_kwargs") or {})
    summary = run_simulation(cfg, **kwargs)
    return summary.to_dict()


#: fn-path of :func:`run_point_task`, used by the campaign layer
POINT_TASK_FN = "repro.orchestrator.pool:run_point_task"


class WorkerPool(LeasePool):
    """``workers`` local processes (or, at 1, the caller itself, which
    cannot enforce ``timeout_s``); every parameter is the scheduler's
    (:class:`~repro.orchestrator.lease.LeasePool`)."""

    def __init__(self, workers: int = 1, timeout_s: Optional[float] = None,
                 retries: int = 1, retry_backoff_s: float = 0.0,
                 retry_jitter: float = 0.5):
        super().__init__(timeout_s, retries, retry_backoff_s, retry_jitter)
        self.workers = max(1, int(workers))

    def describe_fleet(self) -> str:
        return f"{self.workers} local workers"

    def _open_slots(self, n_tasks: int) -> List[Any]:
        if self.workers <= 1:
            return [InlineSlot()]
        return [LocalSlot() for _ in range(min(self.workers, n_tasks))]
