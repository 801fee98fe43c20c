#!/usr/bin/env python
"""CI smoke for the distributed campaign fabric and ``repro serve``.

Boots two real ``repro fabric worker`` processes on localhost, then
checks the full distributed contract end to end:

1. a sweep dispatched across the two workers is **bit-identical** to
   the same sweep run sequentially in-process;
2. SIGKILLing one worker mid-campaign loses zero points -- the dead
   worker's lease is re-granted and every task still completes;
3. ``repro serve`` streams per-point NDJSON progress for a submitted
   campaign spec, and a repeated submission is served entirely from
   the warm cache with byte-identical results.

Run from the repo root:  PYTHONPATH=src python scripts/fabric_smoke.py
Exits non-zero (with a diagnostic) on the first violated invariant.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import SimConfig  # noqa: E402
from repro.orchestrator import (Executor, FabricPool, Point,  # noqa: E402
                                ResultStore)
from repro.orchestrator.pool import POINT_TASK_FN, Task  # noqa: E402

CONFIG = {
    "topology": "torus",
    "topology_kwargs": {"rows": 4, "cols": 4, "hosts_per_switch": 2},
    "routing": "itb", "policy": "rr", "traffic": "uniform",
    "injection_rate": 0.01, "warmup_ps": 20_000_000,
    "measure_ps": 80_000_000, "seed": 5,
}
RATES = [0.004, 0.008, 0.012, 0.016]

_PROCS = []


def log(msg):
    print(f"[fabric-smoke] {msg}", flush=True)


def fail(msg):
    log(f"FAIL: {msg}")
    sys.exit(1)


def spawn(argv, announce_marker):
    """Start a repro subprocess; return (proc, announced address)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    _PROCS.append(proc)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            fail(f"{argv[0]} exited before announcing: rc={proc.poll()}")
        if announce_marker in line:
            addr = line.split(announce_marker, 1)[1].split()[0]
            return proc, addr
    fail(f"{argv[0]} never announced its address")


def points():
    return [Point(f"rate:{r:.6g}",
                  SimConfig.from_dict(dict(CONFIG, injection_rate=r)))
            for r in RATES]


def run_campaign(tmp, tag, **executor_kwargs):
    store = ResultStore(os.path.join(tmp, tag))
    ex = Executor(store=store, **executor_kwargs)
    results = ex.run_points(points())
    return [r.to_dict() for r in results]


def check_bit_identical(tmp, fleet):
    sequential = run_campaign(tmp, "seq")
    distributed = run_campaign(tmp, "fab", fabric=fleet)
    if distributed != sequential:
        fail("distributed results differ from sequential")
    log(f"bit-identical across 2 workers: {len(sequential)} points OK")


def check_sigkill_survival(fleet, victim):
    """Kill one worker as soon as the first point lands."""
    pool = FabricPool(fleet, retries=1)
    tasks = [Task(p.point_id, POINT_TASK_FN, p.payload())
             for p in points()]
    seen = []

    def on_result(result):
        if not seen:
            victim.send_signal(signal.SIGKILL)
            log(f"SIGKILLed worker pid={victim.pid} mid-campaign")
        seen.append(result)

    results = pool.run(tasks, on_result)
    bad = [r for r in results if not r.ok]
    if bad:
        fail(f"lost {len(bad)} points after worker kill: "
             f"{[r.error for r in bad]}")
    retried = [r for r in results if r.attempts > 1]
    log(f"survived SIGKILL: {len(results)} points OK, "
        f"{len(retried)} re-leased")


def post_campaign(addr, spec):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=300)
    conn.request("POST", "/campaign", json.dumps(spec),
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    lines = [json.loads(ln) for ln in
             resp.read().decode("utf-8").splitlines() if ln]
    conn.close()
    return resp.status, lines


def check_serve(addr):
    spec = {"config": CONFIG, "rates": RATES}
    status, first = post_campaign(addr, spec)
    if status != 200:
        fail(f"serve returned HTTP {status}")
    progress = [e for e in first if e["event"] == "point"]
    if len(progress) != len(RATES):
        fail(f"expected {len(RATES)} streamed point events, "
             f"got {len(progress)}")
    if first[-1]["event"] != "done":
        fail(f"stream ended with {first[-1]!r}")
    log(f"serve streamed {len(progress)} progress events, "
        f"stats={first[-1]['stats']}")

    _status, second = post_campaign(addr, spec)
    if second[-1]["stats"]["cached"] != len(RATES):
        fail(f"resubmission not served from cache: "
             f"{second[-1]['stats']}")
    if second[-1]["results"] != first[-1]["results"]:
        fail("cached results differ from originally computed ones")
    log("resubmitted campaign served warm, byte-identical")


def main():
    env_note = "engine smoke config: 4x4 torus, itb/rr/uniform"
    log(env_note)
    tmp = tempfile.mkdtemp(prefix="fabric_smoke_")
    _w1, addr1 = spawn(["fabric", "worker", "--listen", "127.0.0.1:0"],
                       "fabric worker listening on")
    w2, addr2 = spawn(["fabric", "worker", "--listen", "127.0.0.1:0"],
                      "fabric worker listening on")
    fleet = f"{addr1},{addr2}"
    log(f"fleet up: {fleet}")

    check_bit_identical(tmp, fleet)
    check_sigkill_survival(fleet, victim=w2)

    serve_store = os.path.join(tmp, "serve")
    _srv, srv_addr = spawn(
        ["serve", "--host", "127.0.0.1", "--port", "0",
         "--cache-dir", serve_store],
        "repro serve listening on")
    srv_addr = srv_addr.removeprefix("http://").rstrip("/")
    check_serve(srv_addr)

    log("all fabric smoke checks passed")


if __name__ == "__main__":
    try:
        main()
    finally:
        for proc in _PROCS:
            if proc.poll() is None:
                proc.kill()
