"""Distributed campaign fabric: wire protocol, lease discipline,
worker-death recovery and bit-identical-vs-sequential determinism.

Workers run as forked child processes serving a socket bound by the
parent (so the tests know the port without a rendezvous), which also
makes SIGKILL scenarios honest: the killed worker is a real OS
process whose sockets die with it.
"""

import multiprocessing as mp
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.sweep import sweep_rates
from repro.orchestrator import Executor, FabricPool, FabricWorker, ResultStore
from repro.orchestrator.pool import POINT_TASK_FN, Task
from repro.orchestrator.wire import (WIRE_FORMAT, FrameError, parse_addrs,
                                     recv_frame, send_frame)
from repro.runner import SATURATION_TASK_FN
from tests.conftest import (UNDECLARED_RUN_OPTIONS, small_config,
                            task_kinds)

_CTX = mp.get_context("fork")

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="fabric worker fixtures inherit a bound socket via fork")


def double_task(payload):
    return {"value": payload["x"] * 2}


def boom_task(payload):
    raise ValueError("boom")


def slow_task(payload):
    time.sleep(payload.get("seconds", 0.3))
    return {"value": payload["x"] * 2}


def hang_once_task(payload):
    """Hangs (until the lease expires) on the first run, then returns."""
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        time.sleep(60)
    return {"recovered": True}


_kinds = task_kinds(double_task, boom_task, slow_task, hang_once_task)


@pytest.fixture
def fleet():
    """Start fabric workers as forked processes; kill them on exit."""
    procs = []

    def start(n=1):
        started = []
        for _ in range(n):
            worker = FabricWorker()
            addr = worker.listen()
            proc = _CTX.Process(target=worker.serve_forever, daemon=True)
            proc.start()
            worker._sock.close()       # parent's copy; the child serves
            procs.append(proc)
            started.append((addr, proc))
        return started

    yield start
    for proc in procs:
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5.0)


class TestWire:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "task", "payload": {"x": [1, 2]}})
            assert recv_frame(b) == {"type": "task",
                                     "payload": {"x": [1, 2]}}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00")         # half a length prefix
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_implausible_length_rejected(self):
        a, b = socket.socketpair()
        a.sendall(b"\xff\xff\xff\xff")  # ~4 GB frame: not a fabric peer
        try:
            with pytest.raises(FrameError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_body_rejected(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00\x00\x03not")
        try:
            with pytest.raises(FrameError, match="undecodable|object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_addrs(self):
        assert parse_addrs("h1:7001, h2:7002") == [("h1", 7001),
                                                   ("h2", 7002)]
        with pytest.raises(ValueError, match="host:port"):
            parse_addrs("justahost")
        with pytest.raises(ValueError, match="no fabric"):
            parse_addrs(" , ")


class TestFabricPool:
    def test_two_workers_run_everything(self, fleet):
        (a1, _), (a2, _) = fleet(2)
        pool = FabricPool(f"{a1},{a2}")
        assert pool.workers == 2
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(8)]
        results = pool.run(tasks)
        assert [r.value["value"] for r in results] == \
            [2 * i for i in range(8)]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_clean_exception_fails_without_retry(self, fleet):
        ((addr, _),) = fleet(1)
        pool = FabricPool(addr, retries=3)
        results = pool.run([Task("t", "boom_task", {})])
        assert not results[0].ok
        assert results[0].attempts == 1
        assert "ValueError: boom" in results[0].error

    def test_empty_task_list(self, fleet):
        ((addr, _),) = fleet(1)
        assert FabricPool(addr).run([]) == []

    def test_duplicate_ids_rejected(self, fleet):
        ((addr, _),) = fleet(1)
        with pytest.raises(ValueError, match="unique"):
            FabricPool(addr).run(
                [Task("a", "double_task", {"x": 1}),
                 Task("a", "double_task", {"x": 2})])

    def test_sigkilled_worker_task_releases_zero_lost(self, fleet):
        """A worker SIGKILLed mid-campaign loses no points: its lease
        dies with its socket and the task re-runs elsewhere."""
        (a1, p1), (a2, _p2) = fleet(2)
        pool = FabricPool(f"{a1},{a2}", retries=2)
        tasks = [Task(str(i), "slow_task",
                      {"x": i, "seconds": 0.25}) for i in range(6)]
        killed = []

        def kill_first(_res):
            if not killed:
                os.kill(p1.pid, signal.SIGKILL)
                killed.append(True)

        results = pool.run(tasks, on_result=kill_first)
        assert killed
        assert all(r.ok for r in results)
        assert [r.value["value"] for r in results] == \
            [2 * i for i in range(6)]
        # exactly the lease in flight on the killed worker re-ran
        assert max(r.attempts for r in results) == 2

    def test_lease_timeout_regrants_to_other_worker(self, fleet,
                                                    tmp_path):
        """A hung lease expires and the task re-leases; the retry lands
        on the idle worker (the hung one is still wedged)."""
        (a1, _), (a2, _) = fleet(2)
        flag = str(tmp_path / "flag")
        pool = FabricPool(f"{a1},{a2}", timeout_s=0.5, retries=1)
        t0 = time.monotonic()
        results = pool.run([Task("t", "hang_once_task",
                                 {"flag": flag})])
        assert time.monotonic() - t0 < 30
        assert results[0].ok
        assert results[0].value == {"recovered": True}
        assert results[0].attempts == 2

    def test_unreachable_worker_does_not_stall_fleet(self, fleet):
        ((addr, _),) = fleet(1)
        # port 1 refuses immediately; the dead address burns no attempts
        pool = FabricPool(f"127.0.0.1:1,{addr}")
        pool.connect_attempts, pool.connect_backoff_s = 2, 0.05
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(5)]
        results = pool.run(tasks)
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_all_workers_unreachable_fails_loudly(self):
        pool = FabricPool("127.0.0.1:1")
        pool.connect_attempts, pool.connect_backoff_s = 2, 0.05
        results = pool.run([Task("t", "double_task", {"x": 1})])
        assert not results[0].ok
        assert "no reachable fabric workers" in results[0].error

    def test_version_mismatch_rejected(self):
        """A worker running different sources must not compute points:
        the coordinator refuses its hello."""
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = f"127.0.0.1:{srv.getsockname()[1]}"

        def impostor():
            conn, _ = srv.accept()
            send_frame(conn, {"type": "hello", "pid": 1,
                              "version": "0.0.0-bogus",
                              "wire": WIRE_FORMAT})
            time.sleep(1.0)
            conn.close()

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            pool = FabricPool(addr)
            pool.connect_attempts = 1
            results = pool.run([Task("t", "double_task",
                                     {"x": 1})])
            assert not results[0].ok
            assert "no reachable fabric workers" in results[0].error
        finally:
            srv.close()


class TestRawTaskFrames:
    """TLS pins the worker to the coordinator, never the reverse: any
    peer that reaches the port can send a ``task`` frame.  Whatever the
    frame says, the worker runs a registered kind with declared
    options or answers ``err``."""

    @staticmethod
    def _send(addr, fn, payload):
        host, port = parse_addrs(addr)[0]
        with socket.create_connection((host, port), timeout=30) as conn:
            assert recv_frame(conn)["type"] == "hello"
            send_frame(conn, {"type": "task", "task_id": "raw",
                              "attempt": 1, "fn": fn, "payload": payload})
            return recv_frame(conn)

    def test_frame_naming_a_callable_runs_nothing(self, fleet, tmp_path):
        ((addr, _),) = fleet(1)
        marker = tmp_path / "marker"
        reply = self._send(addr, "os:system", f"echo hi > {marker}")
        assert reply["status"] == "err"
        assert "unknown task kind 'os:system'" in reply["value"]
        assert "point" in reply["value"].split("available:")[1]
        assert not marker.exists()

    def test_bare_task_frame_is_an_error_not_a_dead_worker(self, fleet):
        ((addr, _),) = fleet(1)
        host, port = parse_addrs(addr)[0]
        with socket.create_connection((host, port), timeout=30) as conn:
            assert recv_frame(conn)["type"] == "hello"
            send_frame(conn, {"type": "task"})
            reply = recv_frame(conn)
        assert reply["status"] == "err" and reply["task_id"] is None
        # the worker outlived it and serves the next session
        results = FabricPool(addr).run([Task("t", "double_task", {"x": 2})])
        assert results[0].value == {"value": 4}

    @pytest.mark.parametrize("option", UNDECLARED_RUN_OPTIONS)
    def test_point_frame_with_undeclared_option(self, fleet, tmp_path,
                                                option):
        ((addr, _),) = fleet(1)
        target = tmp_path / "profile.out"
        reply = self._send(addr, POINT_TASK_FN, {
            "config": small_config().to_dict(),
            "runner_kwargs": {option: str(target)}})
        assert reply["status"] == "err"
        assert "not plain-data run options" in reply["value"]
        assert not target.exists()

    def test_saturation_frame_with_undeclared_option(self, fleet, tmp_path):
        """The other shipped kind has the same door."""
        ((addr, _),) = fleet(1)
        target = tmp_path / "profile.out"
        reply = self._send(addr, SATURATION_TASK_FN, {
            "config": small_config().to_dict(),
            "runner_kwargs": {"profile_path": str(target)},
            "search": {"start_rate": 0.3}})
        assert reply["status"] == "err"
        assert "not plain-data run options" in reply["value"]
        assert not target.exists()


class TestSpawnedWorker:
    """The ``fleet`` workers are forked, so they inherit this process's
    registrations.  A worker started as its own interpreter has
    imported neither shipped kind when it announces its address; it
    knows both because ``lease.execute`` imports the runner."""

    def test_knows_both_shipped_kinds(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fabric", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            announced = proc.stdout.readline()
            assert "listening on" in announced, proc.wait(timeout=5)
            addr = announced.split()[-1]
            payload = {"config": small_config().to_dict(),
                       "runner_kwargs": {}}
            point = TestRawTaskFrames._send(addr, POINT_TASK_FN, payload)
            search = TestRawTaskFrames._send(
                addr, SATURATION_TASK_FN,
                dict(payload, search={"start_rate": 0.3,
                                      "refine_steps": 1}))
        finally:
            proc.kill()
            proc.wait(timeout=5)
            proc.stdout.close()
        assert point["status"] == "ok", point["value"]
        assert point["value"]["messages_delivered"] > 0
        assert search["status"] == "ok", search["value"]
        assert search["value"]["runs"]


class TestPerAddressGiveUp:
    """The connect_attempts budget: a persistently failing address is
    declared dead after exactly that many consecutive failures, without
    consuming any task attempts."""

    @pytest.fixture
    def accept_then_die(self):
        """A listener that accepts and instantly closes every dial --
        the accept-then-die failure mode (a worker wedged in accept,
        a half-up container).  Yields (addr, accept_counter)."""
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(16)
        srv.settimeout(0.2)
        accepts = []
        stop = threading.Event()

        def loop():
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                accepts.append(1)
                conn.close()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        yield f"127.0.0.1:{srv.getsockname()[1]}", accepts
        stop.set()
        srv.close()
        thread.join(timeout=2.0)

    def test_flaky_address_gives_up_within_budget(self, fleet,
                                                  accept_then_die):
        ((good, _),) = fleet(1)
        flaky, accepts = accept_then_die
        budget = 3
        pool = FabricPool(f"{flaky},{good}")
        pool.connect_attempts, pool.connect_backoff_s = budget, 0.02
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(6)]
        results = pool.run(tasks)
        # the campaign completed entirely on the good worker ...
        assert [r.value["value"] for r in results] == \
            [2 * i for i in range(6)]
        # ... and the flaky address was abandoned within its budget
        # rather than redialled for every remaining task
        assert 1 <= len(accepts) <= budget

    def test_give_up_consumes_no_task_attempts(self, fleet,
                                               accept_then_die):
        """Failed delivery re-queues without burning an attempt: even
        with retries=0 every task must succeed on its first (and only)
        attempt once it reaches a real worker."""
        ((good, _),) = fleet(1)
        flaky, _accepts = accept_then_die
        pool = FabricPool(f"{flaky},{good}", retries=0)
        pool.connect_attempts, pool.connect_backoff_s = 2, 0.02
        tasks = [Task(str(i), "double_task", {"x": i})
                 for i in range(6)]
        results = pool.run(tasks)
        assert all(r.ok and r.attempts == 1 for r in results)


_DATA = os.path.join(os.path.dirname(__file__), "data")
CERT_A = os.path.join(_DATA, "worker-a.crt")
KEY_A = os.path.join(_DATA, "worker-a.key")
CERT_B = os.path.join(_DATA, "worker-b.crt")


class TestFabricTls:
    """TLS-wrapped fabric sessions with CA pinning."""

    @pytest.fixture
    def tls_worker(self):
        worker = FabricWorker("127.0.0.1:0", tls_cert=CERT_A,
                              tls_key=KEY_A)
        addr = worker.listen()
        thread = threading.Thread(target=worker.serve_forever,
                                  daemon=True)
        thread.start()
        yield addr
        worker.close()

    def test_pinned_ca_round_trip(self, tls_worker):
        pool = FabricPool(tls_worker, tls_ca=CERT_A)
        results = pool.run([Task(str(i), "double_task",
                                 {"x": i}) for i in range(4)])
        assert [r.value["value"] for r in results] == [0, 2, 4, 6]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_cert_mismatch_rejected(self, tls_worker):
        """A worker serving a certificate the pinned bundle does not
        vouch for must fail the handshake and count as unreachable --
        no task is ever sent to it."""
        pool = FabricPool(tls_worker, tls_ca=CERT_B)
        pool.connect_attempts, pool.connect_backoff_s = 2, 0.02
        results = pool.run([Task("t", "double_task", {"x": 1})])
        assert not results[0].ok
        assert "no reachable fabric workers" in results[0].error
        # the rejected handshakes must not have wedged the worker
        good = FabricPool(tls_worker, tls_ca=CERT_A)
        assert good.run([Task("t", "double_task",
                              {"x": 2})])[0].value == {"value": 4}

    def test_plaintext_coordinator_rejected(self, tls_worker):
        pool = FabricPool(tls_worker)
        pool.connect_attempts = 1
        results = pool.run([Task("t", "double_task", {"x": 1})])
        assert not results[0].ok

    def test_worker_requires_cert_and_key_together(self):
        with pytest.raises(ValueError, match="together"):
            FabricWorker(tls_cert=CERT_A)

    def test_executor_threads_tls_ca(self, tls_worker):
        ex = Executor(fabric=tls_worker, tls_ca=CERT_A)
        assert isinstance(ex.pool, FabricPool)
        out = ex.run_configs([small_config()])
        assert out[0].messages_delivered > 0

    def test_serve_threads_tls_ca(self, tls_worker):
        """``repro serve --fabric ... --tls-ca PEM`` builds its
        executors from the same flags-to-keywords code as every other
        verb, so the served campaign dials the TLS worker over TLS."""
        import http.client
        import json

        from repro.cli import _executor_kwargs, build_parser
        from repro.orchestrator import ReproServer

        args = build_parser().parse_args(
            ["serve", "--no-cache", "--fabric", tls_worker,
             "--tls-ca", CERT_A])
        srv = ReproServer(**_executor_kwargs(args))
        srv.start_background()
        try:
            conn = http.client.HTTPConnection(*srv.server_address[:2],
                                              timeout=120)
            conn.request("POST", "/campaign", json.dumps(
                {"points": [{"config": small_config().to_dict()}]}))
            events = [json.loads(line) for line in
                      conn.getresponse().read().decode().splitlines()]
            conn.close()
        finally:
            srv.shutdown()
            srv.server_close()
        assert events[-1]["event"] == "done", events[-1]
        assert events[-1]["stats"] == {"simulated": 1, "cached": 0,
                                       "failed": 0}

    def test_executor_rejects_tls_without_fabric(self):
        with pytest.raises(ValueError, match="fabric"):
            Executor(workers=2, tls_ca=CERT_A)


class TestFabricExecutor:
    def test_campaign_bit_identical_to_sequential(self, fleet, tmp_path):
        """The acceptance bar: a 2-worker localhost fabric reproduces
        the sequential sweep field for field, bit for bit."""
        (a1, _), (a2, _) = fleet(2)
        base = small_config()
        rates = [0.004, 0.008, 0.02, 0.04]
        seq = sweep_rates(base, rates)
        ex = Executor(fabric=f"{a1},{a2}", store=ResultStore(tmp_path))
        par = sweep_rates(base, rates, executor=ex)
        assert ex.stats.simulated == len(rates)
        assert [r.to_dict() for r in par.runs] == \
            [r.to_dict() for r in seq.runs]

    def test_one_fabric_address(self, fleet):
        """``fabric=`` is the one spelling of a remote pool: a
        ``workers`` string is not an address."""
        ((addr, _),) = fleet(1)
        with pytest.raises(ValueError):
            Executor(workers=addr)
        ex = Executor(fabric=addr)
        assert isinstance(ex.pool, FabricPool)
        assert ex.workers == 1
        out = ex.run_configs([small_config()])
        assert out[0].messages_delivered > 0
        assert ex.stats.simulated == 1

    def test_fabric_rerun_is_served_from_store(self, fleet, tmp_path):
        (a1, _), = fleet(1)
        store = ResultStore(tmp_path)
        configs = [small_config(injection_rate=r) for r in (0.005, 0.01)]
        Executor(fabric=a1, store=store).run_configs(configs)
        ex = Executor(fabric=a1, store=store)
        ex.run_configs(configs)
        assert ex.stats.cached == 2 and ex.stats.simulated == 0
