"""Orchestrator: worker pool fault tolerance, executor caching,
campaign resume and parallel-vs-sequential determinism.

The crash/timeout task functions are registered as task kinds for the
duration of this module (``task_kinds``), so worker processes (forked
children, which inherit the registry) look them up by name exactly
like the real simulation tasks.

Fault tests that must hold for every process-backed slot kind are
written once, in mixin classes, and run against two forked local
workers and against two forked ``FabricWorker`` processes over TCP.
"""

import multiprocessing as mp
import os
import random
import signal
import sys
import time
from collections import deque

import pytest

import repro.experiments.runner as runner_mod
import repro.orchestrator.lease as lease_mod
from repro.experiments.sweep import sweep_rates
from repro.orchestrator import (CampaignError, Executor, ExecutorStats,
                                FabricPool, FabricWorker, Point,
                                ResultStore, Task, WorkerPool)
from repro.orchestrator.lease import LeasePool, retry_delay_s
from repro.registry import UsageError
from repro.units import ns
from tests.conftest import small_config, task_kinds


def double_task(payload):
    return {"value": payload["x"] * 2}


def boom_task(payload):
    raise ValueError("boom")


def crash_task(payload):
    os._exit(5)


def crash_once_task(payload):
    # crashes on the first attempt, succeeds on the retry: the flag
    # file is the only state surviving the dead worker process
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        os._exit(3)
    return {"recovered": True}


def interrupt_once_task(payload):
    # a ^C landing inside the first attempt; the retry runs clean
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        raise KeyboardInterrupt
    return {"recovered": True}


def sleep_task(payload):
    time.sleep(payload["seconds"])
    return {"slept": True, "pid": os.getpid()}


def hang_once_task(payload):
    """Hangs on the first attempt (until timed out), then succeeds.

    The flag file is the only state surviving the terminated worker.
    """
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        time.sleep(60)
    return {"attempt": 2}


_kinds = task_kinds(double_task, boom_task, crash_task, crash_once_task,
                    interrupt_once_task, sleep_task, hang_once_task)


def plant_sentinel(tmp_path, monkeypatch):
    """An importable module (for this process and every worker forked
    from now on) whose import leaves a marker file behind; returns the
    marker's path."""
    marker = tmp_path / "imported"
    (tmp_path / "sentinel_kind.py").write_text(
        f"open({str(marker)!r}, 'w').close()\n"
        "def run(payload):\n    return {}\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    return marker


def check_unregistered_kinds_refused(pool, marker):
    """A worker runs registered kinds only: whatever else a task names
    -- an importable ``module:callable`` included -- is a clean error
    listing what is registered, and nothing is imported for it."""
    results = pool.run([Task("sys", "os:system", {}),
                        Task("mod", "sentinel_kind:run", {})])
    for res in results:
        assert not res.ok and res.attempts == 1   # deterministic
        assert "unknown task kind" in res.error
        assert "point" in res.error.split("available:")[1]
    assert not marker.exists()
    assert "sentinel_kind" not in sys.modules


class TestWorkerPoolInline:
    def test_runs_in_order(self):
        pool = WorkerPool(workers=1)
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(5)]
        results = pool.run(tasks)
        assert [r.value["value"] for r in results] == [0, 2, 4, 6, 8]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_exception_reported_not_raised(self):
        pool = WorkerPool(workers=1)
        results = pool.run([Task("t", "boom_task", {})])
        assert not results[0].ok
        assert "ValueError: boom" in results[0].error

    def test_on_result_streams(self):
        seen = []
        pool = WorkerPool(workers=1)
        pool.run([Task(str(i), "double_task", {"x": i})
                  for i in range(3)],
                 on_result=lambda r: seen.append(r.task_id))
        assert seen == ["0", "1", "2"]

    def test_keyboard_interrupt_reaches_the_caller(self, tmp_path):
        pool = WorkerPool(workers=1)
        with pytest.raises(KeyboardInterrupt):
            pool.run([Task("t", "interrupt_once_task",
                           {"flag": str(tmp_path / "flag")})])

    def test_duplicate_ids_rejected(self):
        pool = WorkerPool(workers=1)
        with pytest.raises(ValueError, match="unique"):
            pool.run([Task("a", "double_task", {"x": 1}),
                      Task("a", "double_task", {"x": 2})])

    def test_unregistered_kind_is_an_error(self, tmp_path, monkeypatch):
        marker = plant_sentinel(tmp_path, monkeypatch)
        check_unregistered_kinds_refused(WorkerPool(workers=1), marker)


class _LocalSlots:
    """Pools of two forked local workers."""

    @pytest.fixture
    def make_pool(self):
        return lambda **kwargs: WorkerPool(workers=2, **kwargs)


class _TcpSlots:
    """Pools dialling two forked ``FabricWorker`` processes."""

    @pytest.fixture
    def make_pool(self):
        ctx = mp.get_context("fork")
        procs = []

        def make(**kwargs):
            addrs = []
            for _ in range(2):
                worker = FabricWorker()
                addrs.append(worker.listen())
                proc = ctx.Process(target=worker.serve_forever, daemon=True)
                proc.start()
                worker._sock.close()   # parent's copy; the child serves
                procs.append(proc)
            return FabricPool(",".join(addrs), **kwargs)

        yield make
        for proc in procs:
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)


class _SlotFaults:
    """What every process-backed slot kind must survive."""

    def test_clean_exception_not_retried(self, make_pool):
        pool = make_pool(retries=3)
        results = pool.run([Task("t", "boom_task", {})])
        assert not results[0].ok
        assert results[0].attempts == 1
        assert "ValueError: boom" in results[0].error

    def test_unregistered_kind_is_an_error(self, make_pool, tmp_path,
                                           monkeypatch):
        marker = plant_sentinel(tmp_path, monkeypatch)   # before the fork
        check_unregistered_kinds_refused(make_pool(retries=3), marker)

    def test_crashed_worker_recovers_on_retry(self, make_pool, tmp_path):
        pool = make_pool(retries=1)
        flag = str(tmp_path / "flag")
        results = pool.run([Task("t", "crash_once_task",
                                 {"flag": flag})])
        assert results[0].ok
        assert results[0].value == {"recovered": True}
        assert results[0].attempts == 2

    def test_interrupted_worker_task_is_leased_again(self, make_pool,
                                                     tmp_path):
        """KeyboardInterrupt inside a task takes the worker down like
        any crash; it is not framed back as the point's own failure."""
        pool = make_pool(retries=1)
        flag = str(tmp_path / "flag")
        results = pool.run([Task("t", "interrupt_once_task",
                                 {"flag": flag})])
        assert results[0].ok and results[0].attempts == 2

    def test_sigkilled_worker_loses_no_points(self, make_pool):
        """A worker SIGKILLed mid-task loses nothing: its lease dies
        with its socket and exactly that task runs again."""
        pool = make_pool(retries=1)
        # the first result comes from the quick task, while the other
        # worker is still inside the long one
        seconds = [0.05, 1.0, 0.05, 0.05, 0.05, 0.05]
        tasks = [Task(str(i), "sleep_task", {"seconds": sec})
                 for i, sec in enumerate(seconds)]
        killed = []

        def kill_the_other(res):
            if not killed:
                killed.extend(p.pid for p in mp.active_children()
                              if p.pid != res.value["pid"])
                os.kill(killed[0], signal.SIGKILL)

        results = pool.run(tasks, on_result=kill_the_other)
        assert killed
        assert all(r.ok and r.value["slept"] for r in results)
        assert [r.attempts for r in results] == [1, 2, 1, 1, 1, 1]

    def test_duplicate_ids_rejected(self, make_pool):
        with pytest.raises(ValueError, match="unique"):
            make_pool().run([Task("a", "double_task", {"x": 1}),
                             Task("a", "double_task", {"x": 2})])

    def test_empty_run(self, make_pool):
        assert make_pool().run([]) == []


class _LeaseTimeout:
    def test_timed_out_task_result_comes_from_the_retry(self, make_pool,
                                                        tmp_path):
        """End to end: attempt 1 hangs past the timeout and its worker
        is abandoned; the reported value must be attempt 2's."""
        pool = make_pool(timeout_s=0.5, retries=1)
        flag = str(tmp_path / "flag")
        t0 = time.monotonic()
        results = pool.run([Task("t", "hang_once_task",
                                 {"flag": flag})])
        assert time.monotonic() - t0 < 30
        assert results[0].ok
        assert results[0].value == {"attempt": 2}
        assert results[0].attempts == 2


class TestWorkerPoolParallel(_LocalSlots, _SlotFaults):
    def test_results_in_input_order(self):
        pool = WorkerPool(workers=3)
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(7)]
        results = pool.run(tasks)
        assert [r.value["value"] for r in results] == \
            [2 * i for i in range(7)]

    def test_crashed_worker_retried_then_fails(self):
        pool = WorkerPool(workers=2, retries=1)
        results = pool.run([Task("t", "crash_task", {})])
        assert not results[0].ok
        assert results[0].attempts == 2
        assert "exit code 5" in results[0].error

    def test_crash_does_not_poison_other_tasks(self, tmp_path):
        pool = WorkerPool(workers=2, retries=0)
        tasks = [Task("ok1", "double_task", {"x": 1}),
                 Task("bad", "crash_task", {}),
                 Task("ok2", "double_task", {"x": 2})]
        results = pool.run(tasks)
        assert results[0].ok and results[2].ok
        assert not results[1].ok

    def test_hung_worker_times_out(self):
        pool = WorkerPool(workers=2, timeout_s=0.5, retries=0)
        t0 = time.monotonic()
        results = pool.run([Task("t", "sleep_task",
                                 {"seconds": 60})])
        assert time.monotonic() - t0 < 30
        assert not results[0].ok
        assert "timed out" in results[0].error

    def test_run_leaves_no_child_behind(self):
        """Returning or raising, run() reaps every worker it forked --
        including one still busy when the run is abandoned."""
        before = set(mp.active_children())
        pool = WorkerPool(workers=2)
        pool.run([Task(str(i), "double_task", {"x": i})
                  for i in range(4)])
        assert set(mp.active_children()) == before

        def interrupt(_res):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            pool.run([Task("quick", "double_task", {"x": 1}),
                      Task("busy", "sleep_task", {"seconds": 60})],
                     on_result=interrupt)
        assert set(mp.active_children()) == before


class TestTcpSlots(_TcpSlots, _SlotFaults, _LeaseTimeout):
    pass


class _ScriptedPool(LeasePool):
    """The scheduler over one slot that answers from a script: each
    entry maps the leased (task id, attempt) to the echoed pair."""

    name = "scripted worker"

    def __init__(self, script, **kwargs):
        super().__init__(**kwargs)
        self.script = list(script)
        self.reopened = 0

    def _open_slots(self, n_tasks):
        return [self]

    def lease(self, task, attempt, timeout_s):
        task_id, attempt = self.script.pop(0)(task.task_id, attempt)
        return {"type": "result", "task_id": task_id, "attempt": attempt,
                "status": "ok", "value": {"leases_left": len(self.script)}}

    def reopen(self):
        self.reopened += 1

    def close(self):
        pass


class TestStaleResultAttribution(_LocalSlots, _LeaseTimeout):
    """Replies are attempt-tagged: a result belonging to an abandoned
    earlier attempt, or to another task altogether, must never be
    credited to the lease in flight (regression for the untagged-tuple
    race)."""

    def test_claim_accepts_matching_attempt(self):
        pool = _ScriptedPool([lambda tid, att: (tid, att)])
        (res,) = pool.run([Task("t", "unused")])
        assert res.ok and res.attempts == 1
        assert pool.reopened == 0

    def test_claim_drops_stale_attempt(self):
        # the first answer carries the tag of an attempt since
        # abandoned: the session is dropped and the task leased again
        pool = _ScriptedPool([lambda tid, att: (tid, att - 1),
                              lambda tid, att: (tid, att)], retries=1)
        (res,) = pool.run([Task("t", "unused")])
        assert res.ok and res.attempts == 2
        assert res.value == {"leases_left": 0}   # the retry's own answer
        assert pool.reopened == 1

    def test_claim_drops_unknown_task(self):
        pool = _ScriptedPool([lambda tid, att: ("ghost", att)], retries=0)
        (res,) = pool.run([Task("t", "unused")])
        assert not res.ok and res.value is None
        assert "out of protocol" in res.error


class TestBackoffIdleSleep:
    """A slot with nothing ready to lease waits until notified or until
    the earliest not_before -- it never polls at a fixed rate."""

    def test_backoff_wait_helper(self):
        now = 100.0
        pending = deque([("t1", 2, 103.5), ("t2", 2, 101.25)])
        assert lease_mod.idle_wait_s(pending, now) == pytest.approx(1.25)
        # nothing backing off: wait for a notification, however long
        assert lease_mod.idle_wait_s(deque(), now) is None
        # an already-expired backoff never produces a negative wait
        assert lease_mod.idle_wait_s(deque([("t", 2, 99.0)]), now) == 0.0

    def test_idle_backoff_sleeps_instead_of_polling(self, tmp_path,
                                                    monkeypatch):
        """The sole pending task is backing off: the scheduler must
        cover the window with one wait, not with dozens of 50 ms
        polls."""
        waits = []
        real = lease_mod.idle_wait_s

        def recording(pending, now):
            waits.append(real(pending, now))
            return waits[-1]

        monkeypatch.setattr(lease_mod, "idle_wait_s", recording)
        pool = WorkerPool(workers=2, retries=1, retry_backoff_s=0.6)
        pool.retry_jitter = 0.0
        flag = str(tmp_path / "flag")
        results = pool.run([Task("t", "crash_once_task",
                                 {"flag": flag})])
        assert results[0].ok and results[0].attempts == 2
        # one wait spanning (most of) the 0.6 s backoff window
        assert any(w > 0.4 for w in waits)
        assert len(waits) < 5


class TestRetryBackoff:
    def test_zero_backoff_means_no_delay(self):
        rng = random.Random(1)
        assert retry_delay_s(0.0, 0.5, 1, rng) == 0.0
        assert retry_delay_s(0.0, 0.5, 5, rng) == 0.0

    def test_delay_doubles_and_jitter_is_bounded(self):
        rng = random.Random(1)
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            for _ in range(20):
                d = retry_delay_s(0.5, 0.5, attempt, rng)
                assert base <= d <= base * 1.5

    def test_no_jitter_is_deterministic(self):
        rng = random.Random(1)
        assert retry_delay_s(1.0, 0.0, 1, rng) == 1.0
        assert retry_delay_s(1.0, 0.0, 3, rng) == 4.0

    def test_invalid_values_rejected(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(UsageError, match="retry_backoff_s"):
                WorkerPool(retry_backoff_s=bad)

    def test_crash_retry_waits_out_the_backoff(self, tmp_path):
        pool = WorkerPool(workers=2, retries=1, retry_backoff_s=0.5)
        pool.retry_jitter = 0.0
        flag = str(tmp_path / "flag")
        t0 = time.monotonic()
        results = pool.run([Task("t", "crash_once_task",
                                 {"flag": flag})])
        assert results[0].ok
        assert results[0].attempts == 2
        assert time.monotonic() - t0 >= 0.5

    def test_backoff_does_not_stall_other_tasks(self, tmp_path):
        """While one task sits out its backoff, fresh tasks keep
        launching."""
        pool = WorkerPool(workers=2, retries=1, retry_backoff_s=1.0)
        pool.retry_jitter = 0.0
        flag = str(tmp_path / "flag")
        tasks = [Task("crash", "crash_once_task",
                      {"flag": flag})] + \
            [Task(f"ok{i}", "double_task", {"x": i})
             for i in range(4)]
        results = pool.run(tasks)
        assert all(r.ok for r in results)
        assert results[0].attempts == 2

    def test_executor_threads_backoff_through(self):
        executor = Executor(workers=2, retry_backoff_s=1.5)
        assert executor.pool.retry_backoff_s == 1.5


def _count_calls(monkeypatch):
    """Wrap the point task's run_simulation with a call counter (only
    observable on the in-process path, which is exactly the point:
    cached campaigns must not reach it at all)."""
    calls = []
    real = runner_mod.run_simulation

    def counting(config, **kwargs):
        calls.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(runner_mod, "run_simulation", counting)
    return calls


class TestExecutor:
    def test_completed_campaign_runs_zero_simulations(self, tmp_path,
                                                      monkeypatch):
        calls = _count_calls(monkeypatch)
        store = ResultStore(tmp_path)
        configs = [small_config(injection_rate=r) for r in (0.005, 0.01)]

        first = Executor(workers=1, store=store).run_configs(configs)
        assert len(calls) == 2

        ex = Executor(workers=1, store=store)
        second = ex.run_configs(configs)
        assert len(calls) == 2        # zero new run_simulation calls
        assert ex.stats.cached == 2 and ex.stats.simulated == 0
        assert [s.to_dict() for s in second] == \
            [s.to_dict() for s in first]

    def test_interrupted_campaign_resumes_missing_points_only(
            self, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch)
        store = ResultStore(tmp_path)
        rates = (0.004, 0.008, 0.012, 0.016)
        configs = [small_config(injection_rate=r) for r in rates]

        # campaign dies after two points (a killed worker / ^C leaves
        # exactly this on disk: the finished prefix, nothing else)
        Executor(workers=1, store=store).run_configs(configs[:2])
        assert len(calls) == 2

        ex = Executor(workers=1, store=store)
        summaries = ex.run_configs(configs)
        assert len(calls) == 4        # only the two missing points ran
        assert ex.stats.cached == 2 and ex.stats.simulated == 2
        assert [s.offered_flits_ns_switch for s in summaries] == \
            pytest.approx(list(rates))

    def test_failed_point_raises_campaign_error(self, tmp_path):
        ex = Executor(workers=1, store=ResultStore(tmp_path))
        bad = small_config().with_overrides(injection_rate=-1.0)
        with pytest.raises(CampaignError, match="1 of 1"):
            ex.run_configs([bad])
        assert ResultStore(tmp_path).info().entries == 0

    def test_live_graph_kwarg_rejected(self, torus44):
        ex = Executor(workers=1)
        with pytest.raises(ValueError, match="graph"):
            ex.run_points([Point("p", small_config(),
                                 {"graph": torus44})])

    def test_no_store_executor_works(self):
        ex = Executor(workers=1, store=None)
        out = ex.run_configs([small_config()])
        assert out[0].messages_delivered > 0
        assert ex.stats.simulated == 1 and ex.stats.cached == 0


class TestLedger:
    """``ExecutorStats`` is a campaign's one ledger: each finished point
    is booked once, and the booking is the event the CLI prints and
    ``repro serve`` streams."""

    def test_eta_spreads_over_parallel_slots(self):
        ledger = ExecutorStats(total=4, slots=2)
        assert ledger.record("a", "done", 1.0)["eta_s"] == 1.5
        # 2 left, 2 at a time: one more mean; a serial estimate says 2.0
        assert ledger.record("b", "done", 1.0)["eta_s"] == 1.0

    def test_events_count_every_finished_point(self):
        ledger = ExecutorStats(total=3)
        cached = ledger.record("a", "cached")
        done = ledger.record("b", "done", 0.123456)
        failed = ledger.record("c", "FAILED")
        # no ETA before a simulated point, none once nothing is left
        assert cached == {"event": "point", "completed": 1, "total": 3,
                          "label": "a", "status": "cached",
                          "elapsed_s": 0.0}
        assert done == {"event": "point", "completed": 2, "total": 3,
                        "label": "b", "status": "done",
                        "elapsed_s": 0.1235, "eta_s": 0.1}
        assert failed["completed"] == 3 and "eta_s" not in failed
        assert (ledger.simulated, ledger.cached, ledger.failed) == (1, 1, 1)

    def test_executor_hands_each_event_to_on_point(self, tmp_path):
        assert Executor(workers=2).stats.slots == 2
        events = []
        ex = Executor(store=ResultStore(tmp_path), on_point=events.append)
        ex.run_tasks("double_task", [{"x": 1}, {"x": 2}])
        ex.run_tasks("double_task", [{"x": 1}])
        assert [(e["completed"], e["total"], e["status"]) for e in events] \
            == [(1, 2, "done"), (2, 2, "done"), (3, 3, "cached")]
        assert ex.stats.oneline() == "2 simulated, 1 from cache"


class TestDeterminism:
    def test_parallel_campaign_bit_identical_to_sequential(self, tmp_path):
        """4-worker campaign == sequential path, field for field."""
        base = small_config()
        rates = [0.004, 0.008, 0.02, 0.04]
        seq = sweep_rates(base, rates)
        ex = Executor(workers=4, store=ResultStore(tmp_path))
        par = sweep_rates(base, rates, executor=ex)
        assert ex.stats.simulated == len(rates)
        assert len(par.runs) == len(seq.runs)
        # to_dict comparison pins *bit* equality of every float field
        assert [r.to_dict() for r in par.runs] == \
            [r.to_dict() for r in seq.runs]

    def test_wave_dispatch_preserves_early_stop(self, tmp_path):
        """Ascending waves keep stop_after_saturation's kept prefix
        identical to the sequential path's."""
        base = small_config(warmup_ps=ns(10_000), measure_ps=ns(40_000))
        rates = [0.004, 0.3, 0.4, 0.5, 0.6]
        seq = sweep_rates(base, rates, stop_after_saturation=1)
        assert 2 <= len(seq.runs) < len(rates)  # the stop actually fired
        ex = Executor(workers=2, store=ResultStore(tmp_path))
        par = sweep_rates(base, rates, stop_after_saturation=1,
                          executor=ex)
        assert [r.to_dict() for r in par.runs] == \
            [r.to_dict() for r in seq.runs]
