"""Local worker pool: the lease scheduler over inline or forked slots.

Fans independent simulation tasks out across cores.  Queue, retries
and fault policy are :mod:`~repro.orchestrator.lease`'s; this module
only chooses the slots:

* ``workers=1`` -- one inline slot: tasks run in the calling process
  and thread, no multiprocessing at all, so single-core environments
  and debuggers see ordinary stack traces;
* otherwise -- up to ``workers`` forked children
  (:class:`~repro.orchestrator.fabric.LocalSlot`), each living for one
  ``run()`` and serving every lease its slot is granted, so it builds
  a routing table once rather than once per task.  One that dies or
  outlives ``timeout_s`` is replaced and its task retried; when
  ``run()`` returns or raises, none is left behind.

Tasks name their worker function by *kind* -- a name in
:data:`~repro.orchestrator.lease.TASKS`, looked up inside the worker --
taking one JSON-safe payload dict and returning a JSON-safe result
dict.  Keeping the boundary plain-data is what lets the campaign layer
persist every result in the content-addressed store, and one frame
format reach any worker.
"""

from __future__ import annotations

from typing import Any, List

from ..registry import UsageError
from .fabric import LocalSlot
from .lease import InlineSlot, LeasePool, Task, TaskResult, retry_delay_s

__all__ = ["POINT_TASK_FN", "Task", "TaskResult", "WorkerPool",
           "retry_delay_s"]

#: kind of one simulation point; its worker function,
#: :func:`repro.experiments.runner.run_point_task`, registers under it
POINT_TASK_FN = "point"


class WorkerPool(LeasePool):
    """``workers`` local processes (or, at 1, the caller itself, which
    cannot enforce ``timeout_s``); every other keyword is the
    scheduler's (:class:`~repro.orchestrator.lease.LeasePool`)."""

    def __init__(self, workers: int = 1, **schedule: Any):
        if not (isinstance(workers, int) and workers >= 1):
            raise UsageError(f"workers must be >= 1, got {workers!r}")
        super().__init__(**schedule)
        self.workers = workers

    def describe_fleet(self) -> str:
        return f"{self.workers} local workers"

    def _open_slots(self, n_tasks: int) -> List[Any]:
        if self.workers == 1:
            return [InlineSlot()]
        return [LocalSlot() for _ in range(min(self.workers, n_tasks))]
