"""Chaos-injection fabric harness: deterministic plans, per-fault
recovery, and bit-identity of a chaos-ridden campaign.

The proxy sits between a real :class:`FabricPool` and real
:class:`FabricWorker` sessions, so every recovery asserted here is the
production lease discipline reacting to a genuinely broken wire --
nothing is mocked.  The acceptance test at the bottom is the fabric's
robustness drill: two forked workers, the storm schedule, one worker
SIGKILLed mid-campaign, and the sweep must still come out
bit-identical to sequential.
"""

import multiprocessing as mp
import os
import signal
import threading
import time

import pytest

from repro.experiments.sweep import sweep_rates
from repro.orchestrator import Executor
from repro.orchestrator.fabric import FabricPool, FabricWorker
from repro.orchestrator.pool import Task
from tests.chaos import ChaosFabric, ChaosPlan
from tests.conftest import small_config, task_kinds

_CTX = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
    else None


def double_task(payload):
    return {"value": payload["x"] * 2}


def sleep_task(payload):
    time.sleep(payload["seconds"])
    return {"slept": payload["seconds"]}


_kinds = task_kinds(double_task, sleep_task)


@pytest.fixture
def worker_addr():
    """One in-process fabric worker on an ephemeral port."""
    worker = FabricWorker("127.0.0.1:0")
    addr = worker.listen()
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    yield addr
    worker.close()


def _run_under(addr, plan, n=6):
    """Run n double_tasks through a chaos proxy; return (results, fabric)."""
    with ChaosFabric(addr, plan) as chaos:
        pool = FabricPool(chaos.addrs, retries=10, timeout_s=1.0)
        pool.connect_attempts, pool.connect_backoff_s = 40, 0.02
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(n)]
        results = pool.run(tasks)
    return results, chaos


class TestChaosPlan:
    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probability"):
            ChaosPlan(drop=1.5)
        with pytest.raises(ValueError, match="probability"):
            ChaosPlan(corrupt=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            ChaosPlan(delay_ms=-1)
        with pytest.raises(ValueError, match="budget"):
            ChaosPlan(max_events=-1)

    def test_schedule_is_seed_deterministic(self):
        plan = ChaosPlan(seed=4, drop=0.3)
        a = [plan.rng_for(0, 2, "c->w").random() for _ in range(5)]
        b = [plan.rng_for(0, 2, "c->w").random() for _ in range(5)]
        assert a == b
        # distinct streams per proxy / connection / direction
        assert a != [plan.rng_for(0, 3, "c->w").random()
                     for _ in range(5)]
        assert a != [plan.rng_for(0, 2, "w->c").random()
                     for _ in range(5)]


class TestChaosProxyRecovery:
    def test_quiet_plan_is_transparent(self, worker_addr):
        results, chaos = _run_under(worker_addr, ChaosPlan.quiet())
        assert all(r.ok and r.attempts == 1 for r in results)
        assert chaos.log.total == 0

    def test_task_outliving_the_dial_timeout_completes(self, worker_addr,
                                                       monkeypatch):
        """A worker sends nothing while it runs a task, so the proxy's
        backend socket must not keep its dial timeout: a quiet proxy
        that did would cut every task longer than the dial, unlogged."""
        monkeypatch.setattr("tests.chaos.DIAL_TIMEOUT_S", 0.2)
        with ChaosFabric(worker_addr, ChaosPlan.quiet()) as chaos:
            pool = FabricPool(chaos.addrs, retries=2, timeout_s=10.0)
            results = pool.run([Task("t", "sleep_task", {"seconds": 0.6})])
        assert results[0].ok and results[0].attempts == 1, results[0].error
        assert chaos.log.total == 0

    @pytest.mark.parametrize("kind,plan_kwargs", [
        ("drop", {"drop": 0.2}),
        ("delay", {"delay": 0.5, "delay_ms": 20.0}),
        ("corrupt", {"corrupt": 0.2}),
        ("truncate", {"truncate": 0.25}),
        ("reset", {"reset": 0.25}),
        ("stall", {"stall": 0.3, "stall_ms": 40.0}),
        ("duplicate", {"duplicate": 0.3}),
    ])
    def test_every_fault_kind_is_survived(self, worker_addr, kind,
                                          plan_kwargs):
        """Each fault kind alone: the schedule fires it at least once
        and the campaign still completes with correct values."""
        plan = ChaosPlan(seed=13, max_events=16, **plan_kwargs)
        results, chaos = _run_under(worker_addr, plan, n=8)
        assert all(r.ok for r in results), \
            [(r.task_id, r.error) for r in results if not r.ok]
        assert [r.value["value"] for r in results] == \
            [2 * i for i in range(8)]
        assert chaos.log.counts.get(kind, 0) >= 1, chaos.log.counts

    def test_budget_bounds_injection(self, worker_addr):
        plan = ChaosPlan(seed=2, drop=1.0, max_events=3)
        results, chaos = _run_under(worker_addr, plan, n=6)
        assert all(r.ok for r in results)
        # after 3 dropped frames the proxy turns transparent forever
        assert chaos.log.total == 3

    def test_zero_budget_disables_chaos(self, worker_addr):
        plan = ChaosPlan(seed=2, drop=1.0, reset=1.0, max_events=0)
        results, chaos = _run_under(worker_addr, plan)
        assert all(r.ok and r.attempts == 1 for r in results)
        assert chaos.log.total == 0

    def test_dead_backend_refuses_cleanly(self):
        """A proxy whose backend is gone refuses the dial instead of
        accepting and wedging the coordinator."""
        with ChaosFabric("127.0.0.1:1", ChaosPlan.quiet()) as chaos:
            pool = FabricPool(chaos.addrs)
            pool.connect_attempts, pool.connect_backoff_s = 2, 0.02
            results = pool.run([Task("t", "double_task",
                                     {"x": 1})])
        assert not results[0].ok
        assert "no reachable fabric workers" in results[0].error


@pytest.mark.skipif(_CTX is None,
                    reason="acceptance drill forks real worker processes")
class TestChaosAcceptance:
    def test_storm_plus_worker_kill_is_bit_identical(self, tmp_path):
        """The robustness acceptance bar: a two-worker sweep under the
        storm schedule (drops, delays, corrupts, tears, resets, stalls
        and replays frames), with one worker SIGKILLed mid-campaign,
        reproduces the sequential sweep bit for bit."""
        procs, addrs = [], []
        for _ in range(2):
            worker = FabricWorker()
            addrs.append(worker.listen())
            proc = _CTX.Process(target=worker.serve_forever, daemon=True)
            proc.start()
            worker._sock.close()       # parent's copy; the child serves
            procs.append(proc)
        base = small_config()
        rates = [0.004, 0.008, 0.02]
        seq = sweep_rates(base, rates)

        killed = []
        try:
            with ChaosFabric(",".join(addrs),
                             ChaosPlan.storm(seed=1)) as chaos:
                # a dropped task or result frame costs one lease
                # timeout; a point here takes milliseconds, the storm's
                # stall 0.3 s
                ex = Executor(fabric=chaos.addrs, retries=10,
                              timeout_s=3.0)
                ex.pool.connect_attempts = 40
                ex.pool.connect_backoff_s = 0.02

                def reaper():
                    deadline = time.monotonic() + 60
                    while (time.monotonic() < deadline
                           and ex.stats.simulated < 1):
                        time.sleep(0.02)
                    if procs[0].is_alive():
                        os.kill(procs[0].pid, signal.SIGKILL)
                        killed.append(procs[0].pid)

                threading.Thread(target=reaper, daemon=True).start()
                par = sweep_rates(base, rates, executor=ex)
                assert ex.stats.simulated == len(rates)
            assert killed, "the reaper never fired"
            assert chaos.log.total > 0, "the schedule injected nothing"
            assert [r.to_dict() for r in par.runs] == \
                [r.to_dict() for r in seq.runs]
        finally:
            for proc in procs:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5.0)
