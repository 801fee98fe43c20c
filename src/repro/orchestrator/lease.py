"""The orchestrator's one lease scheduler (DESIGN §8).

Every pool -- inline, local processes, remote fabric -- is this state
machine driving N *slots*.  The scheduler owns the pending queue of
``(task, attempt, not_before)`` entries, retry with exponential
backoff, the attempt tag every reply must echo, the per-slot give-up
budget, and the completion ledger whose ``on_result`` callback fires
under the scheduler lock, so store writes and progress lines stay
serialised however many slots report.

A slot runs one task at a time: ``lease(task, attempt, timeout_s)``
returns the worker's ``result`` frame or raises :class:`Lost`;
``reopen()`` is called under the lock after a lost lease, ``close()``
at the end of ``run()``; ``name`` labels error texts.  A lease ends in
exactly one of four ways, whatever the slot:

1. a ``result`` frame echoing the lease's task id *and* attempt tag:
   ``ok`` finishes the task; ``err`` is a clean Python exception --
   deterministic, so it fails at once and is never retried;
2. the lease timeout expires: the slot abandons that worker, so a late
   result can never be read (and its tag would be rejected anyway);
3. the worker dies mid-task or answers out of protocol.  2 and 3 each
   consume one of the task's ``1 + retries`` attempts and re-lease it
   after the backoff;
4. the task could not be *delivered* (dial refused, bad hello, send
   failed): re-queued without consuming an attempt -- it never started.
   ``connect_attempts`` such failures in a row retire the slot; when
   every slot is gone the remaining tasks fail loudly, not hang.

One thread drives each slot (a lone slot is driven by the caller's own
thread), waiting on the scheduler's condition until notified or until
the earliest ``not_before`` -- nothing polls at a fixed rate.
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..registry import Registry, UsageError

__all__ = ["InlineSlot", "LeasePool", "Lost", "POINT_TASK_FN", "TASKS",
           "Task", "TaskResult", "execute", "idle_wait_s", "retry_delay_s",
           "task_frame"]

#: everything a worker will run: task kind -> worker function, one
#: JSON-safe payload dict in, one JSON-safe result out.  A function
#: registers itself where it is defined; both shipped ones are in
#: :mod:`repro.runner`, which :func:`execute` imports.  A frame
#: selects among these by name and can name nothing else.
TASKS: Registry[Callable[[Dict[str, Any]], Any]] = Registry("task kind")

#: kind of one simulation point; its worker function,
#: :func:`repro.runner.run_point_task`, registers under it
POINT_TASK_FN = "point"


@dataclass(frozen=True)
class Task:
    """One unit of work: a task kind plus its payload."""

    task_id: str
    #: the task's kind, a name registered in :data:`TASKS`
    fn: str
    #: JSON-safe argument dict passed to the kind's worker function
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TaskResult:
    """Outcome of one task after all attempts."""

    task_id: str
    value: Optional[Dict[str, Any]]
    error: Optional[str]
    attempts: int
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.error is None


class Lost(Exception):
    """A lease ended without an outcome.  ``consumed`` is False when
    the task provably never reached a worker, so the attempt is not
    counted against it."""

    def __init__(self, reason: str, consumed: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.consumed = consumed


def task_frame(task: Task, attempt: int) -> Dict[str, Any]:
    """The ``task`` message that leases ``task`` to a worker."""
    return {"type": "task", "task_id": task.task_id, "attempt": attempt,
            "fn": task.fn, "payload": dict(task.payload)}


def execute(msg: Dict[str, Any]) -> Dict[str, Any]:
    """Run one ``task`` message; returns its ``result`` message.

    Every slot kind ends up here.  A clean exception becomes an ``err``
    result -- an unregistered kind is one, naming what is registered;
    ``KeyboardInterrupt`` and ``SystemExit`` propagate and take the
    worker down -- a lost lease, re-run elsewhere.
    """
    # the orchestrator's one import of a layer above it: the runner
    # registers both shipped kinds, so every process that runs tasks
    # knows them however it was started (a fixed module -- nothing a
    # frame names is imported)
    from .. import runner  # noqa: F401
    t0 = time.monotonic()
    try:
        status, value = "ok", TASKS.get(msg["fn"])(msg["payload"])
    except Exception:
        status, value = "err", traceback.format_exc()
    # .get: a frame from an arbitrary peer may lack anything
    return {"type": "result", "task_id": msg.get("task_id"),
            "attempt": msg.get("attempt"), "status": status,
            "value": value, "elapsed_s": time.monotonic() - t0}


def retry_delay_s(backoff_s: float, jitter: float, failed_attempt: int,
                  rng: random.Random) -> float:
    """Seconds to wait before re-running after ``failed_attempt``.

    Exponential (doubling per attempt) from ``backoff_s``, stretched by
    up to ``jitter`` (a fraction) of random extra delay so simultaneous
    failures do not retry in lock-step.
    """
    if backoff_s <= 0:
        return 0.0
    delay = backoff_s * (2.0 ** (failed_attempt - 1))
    return delay * (1.0 + jitter * rng.random())


def idle_wait_s(pending, now: float) -> Optional[float]:
    """How long a slot with nothing ready to lease may wait: until the
    earliest ``not_before`` among the backing-off entries, or ``None``
    -- until notified -- when nothing is pending at all."""
    if not pending:
        return None
    return max(0.0, min(entry[2] for entry in pending) - now)


class InlineSlot:
    """Runs each lease on the calling thread: no process, no thread,
    no timeout -- debuggers and single-core hosts see ordinary stack
    traces, and ``KeyboardInterrupt`` reaches the caller."""

    name = "inline"

    def lease(self, task: Task, attempt: int,
              timeout_s: Optional[float]) -> Dict[str, Any]:
        return execute(task_frame(task, attempt))

    def close(self) -> None:
        pass                           # never Lost, so never reopened


class _Run:
    """State of one ``run()`` call; everything is guarded by ``cond``."""

    def __init__(self, tasks: Sequence[Task], on_result, n_slots: int):
        self.cond = threading.Condition()
        #: the attempt may not start before the monotonic ``not_before``
        self.pending = deque((task, 1, 0.0) for task in tasks)
        self.done: Dict[str, TaskResult] = {}
        self.total = len(tasks)
        self.on_result = on_result
        #: slots not yet given up on
        self.live = n_slots
        #: run() is unwinding: slot threads must stop, not respawn
        self.closed = False
        #: what a slot thread died of, re-raised by run()
        self.error: Optional[BaseException] = None

    def finished(self) -> bool:
        return len(self.done) >= self.total


class LeasePool:
    """The scheduler; subclasses only choose the slots.

    ``timeout_s`` bounds each *attempt*; ``retries`` is how many extra
    attempts a lost or timed-out task gets before it is reported
    failed.  Attempt ``n+1`` starts no sooner than ``retry_backoff_s *
    2**(n-1)`` seconds after attempt ``n`` was lost, stretched by up to
    ``retry_jitter``; the default 0 retries immediately, a machine
    whose workers die from memory pressure wants a second or two.
    These three are every pool's keywords, defaulted and checked here
    alone: a value out of range is a :class:`~repro.registry.UsageError`
    naming the setting.
    """

    #: consecutive undelivered leases after which a slot is given up
    #: on, and the (linearly growing) pause between them
    connect_attempts = 5
    connect_backoff_s = 0.2
    #: the random share a retry delay is stretched by (0.5: up to 50 %)
    retry_jitter = 0.5

    def __init__(self, timeout_s: Optional[float] = None, retries: int = 1,
                 retry_backoff_s: float = 0.0):
        if timeout_s is not None and not timeout_s > 0:
            raise UsageError(f"timeout_s must be positive, got {timeout_s}")
        if not retries >= 0:
            raise UsageError(f"retries must be >= 0, got {retries}")
        if not retry_backoff_s >= 0:
            raise UsageError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self._rng = random.Random()

    def _open_slots(self, n_tasks: int) -> List[Any]:
        """The slots for one run() (called on the caller's thread);
        ``describe_fleet()`` names them in error texts."""
        raise NotImplementedError

    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[TaskResult], None]] = None
            ) -> List[TaskResult]:
        """Execute every task; results come back in input order.

        ``on_result`` fires as each task finishes (completion order),
        which is what streams per-point progress to the CLI.
        """
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique within one run() call")
        if not tasks:
            return []
        slots = self._open_slots(len(tasks))
        run = _Run(tasks, on_result, len(slots))
        threads: List[threading.Thread] = []
        try:
            if len(slots) == 1:
                self._serve(run, slots[0])   # on the caller's own thread
            else:
                threads = [threading.Thread(target=self._serve_guarded,
                                            args=(run, slot),
                                            name=f"lease-{slot.name}",
                                            daemon=True)
                           for slot in slots]
                for t in threads:
                    t.start()
                with run.cond:
                    while (run.live > 0 and not run.finished()
                           and run.error is None):
                        run.cond.wait()
            with run.cond:
                if run.error is not None:
                    raise run.error
                # every slot is gone; whatever is still pending can
                # never run -- fail loudly instead of hanging
                while run.pending:
                    task, attempt, _nb = run.pending.popleft()
                    self._finish(run, TaskResult(
                        task.task_id, None,
                        "no reachable fabric workers "
                        f"(fleet: {self.describe_fleet()})", attempt, 0.0))
        finally:
            with run.cond:
                run.closed = True
                run.cond.notify_all()
            for slot in slots:
                slot.close()
            for t in threads:
                t.join(timeout=10.0)
        return [run.done[t.task_id] for t in tasks]

    # -- one slot's lease loop -------------------------------------------

    def _serve_guarded(self, run: _Run, slot) -> None:
        try:
            self._serve(run, slot)
        except BaseException as exc:   # handed to run(), which re-raises
            with run.cond:
                run.error = run.error or exc
                run.cond.notify_all()

    def _serve(self, run: _Run, slot) -> None:
        undelivered = 0
        while True:
            with run.cond:
                entry = self._claim(run)
            if entry is None:
                return
            task, attempt, _nb = entry
            started = time.monotonic()
            try:
                reply = slot.lease(task, attempt, self.timeout_s)
                if (reply.get("type") != "result"
                        or reply.get("task_id") != task.task_id
                        or reply.get("attempt") != attempt):
                    # e.g. a stale result from a lease since abandoned:
                    # never credit it to this attempt
                    raise Lost(f"{slot.name} answered out of protocol")
            except Lost as lost:
                if not lost.consumed:
                    undelivered += 1
                with run.cond:
                    if run.closed:
                        return
                    self._release(run, task, attempt, started, lost)
                    if undelivered >= self.connect_attempts:
                        run.live -= 1
                        run.cond.notify_all()
                        return
                    # under the lock: a local slot forks here, and no
                    # sibling thread may be inside on_result meanwhile
                    slot.reopen()
                if not lost.consumed:
                    time.sleep(self.connect_backoff_s * undelivered)
                continue

            undelivered = 0            # the worker is demonstrably live
            elapsed = reply.get("elapsed_s")
            if not isinstance(elapsed, (int, float)):
                elapsed = time.monotonic() - started
            ok, value = reply.get("status") == "ok", reply.get("value")
            with run.cond:
                self._finish(run, TaskResult(
                    task.task_id, value if ok else None,
                    None if ok else str(value), attempt, float(elapsed)))

    # -- queue and ledger (all under run.cond) ---------------------------

    @staticmethod
    def _claim(run: _Run) -> Optional[tuple]:
        """Pop the first attempt whose backoff has elapsed, waiting for
        one if need be; ``None`` once the run is over."""
        while not run.closed and not run.finished():
            now = time.monotonic()
            for i, entry in enumerate(run.pending):
                if entry[2] <= now:
                    del run.pending[i]
                    return entry
            run.cond.wait(idle_wait_s(run.pending, now))
        return None

    def _release(self, run: _Run, task: Task, attempt: int, started: float,
                 lost: Lost) -> None:
        """Return a lost lease to the queue, or fail the task out."""
        if not lost.consumed:
            run.pending.append((task, attempt, 0.0))
        elif attempt <= self.retries:
            not_before = time.monotonic() + retry_delay_s(
                self.retry_backoff_s, self.retry_jitter, attempt, self._rng)
            run.pending.append((task, attempt + 1, not_before))
        else:
            self._finish(run, TaskResult(
                task.task_id, None,
                f"{lost.reason} (after {attempt} attempts)", attempt,
                time.monotonic() - started))
        run.cond.notify_all()

    @staticmethod
    def _finish(run: _Run, res: TaskResult) -> None:
        if res.task_id in run.done:
            return                     # a duplicate outcome; first wins
        run.done[res.task_id] = res
        if run.on_result:
            run.on_result(res)
        run.cond.notify_all()
