"""Multi-process ResultStore stress: many writers racing a cold store.

The store's contract under concurrency is *zero corrupt reads*: any
``meta.json`` or record file that exists on disk parses
whole, no matter how many processes are mid-``put`` -- atomic renames
mean a reader can never observe a partially-written file.  These tests
read the raw files strictly (no ``get()`` corruption-tolerance) so a
torn write fails the suite instead of hiding as a cache miss.
"""

import json
import multiprocessing as mp
import random

import pytest

from repro.orchestrator.store import STORE_FORMAT, ResultStore

_CTX = mp.get_context("fork")

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="stress processes are forked")

#: shared key space: every process writes and reads the same records,
#: maximising same-file and same-shard contention
N_KEYS = 24
N_PROCS = 6
OPS_PER_PROC = 60


def _payload(i):
    return {"config": {"topology": "torus", "seed": i},
            "runner_kwargs": {"collect_links": False}}


def _result(i):
    return {"messages": i * 1000, "latency_ns": 123.456 + i}


def _stress_proc(root, proc_idx, barrier, errors):
    """One racing writer/reader; reports corruption via ``errors``."""
    store = ResultStore(root)
    keys = [store.key("point", _payload(i)) for i in range(N_KEYS)]
    rng = random.Random(proc_idx)
    barrier.wait()                     # all processes hit the cold
    try:                               # store at the same instant
        for op in range(OPS_PER_PROC):
            i = rng.randrange(N_KEYS)
            store.put(keys[i], "point", _payload(i), _result(i),
                      elapsed_s=0.25)
            # strict raw reads: existing files must parse whole
            meta_path = store.root / "meta.json"
            meta = json.loads(meta_path.read_text())
            if meta != {"format": STORE_FORMAT}:
                errors.put(f"p{proc_idx}: bad meta {meta!r}")
            j = rng.randrange(N_KEYS)
            path = store._path(keys[j])
            if path.exists():
                record = json.loads(path.read_text())
                if record["key"] != keys[j] \
                        or record["result"] != _result(j):
                    errors.put(f"p{proc_idx}: torn record for key {j}")
    except Exception as exc:           # noqa: BLE001 - reported to parent
        errors.put(f"p{proc_idx}: {type(exc).__name__}: {exc}")


def test_concurrent_cold_store_writers_never_corrupt(tmp_path):
    errors = _CTX.Queue()
    barrier = _CTX.Barrier(N_PROCS)
    procs = [_CTX.Process(target=_stress_proc,
                          args=(str(tmp_path), i, barrier, errors),
                          daemon=True)
             for i in range(N_PROCS)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)
    found = []
    while not errors.empty():
        found.append(errors.get())
    assert found == []
    # every record is present and intact afterwards
    store = ResultStore(tmp_path)
    assert store.info().entries == N_KEYS
    for i in range(N_KEYS):
        record = store.get(store.key("point", _payload(i)))
        assert record is not None
        assert record["result"] == _result(i)


def _put_burst_proc(root, proc_idx, barrier):
    store = ResultStore(root)
    barrier.wait()
    for i in range(N_KEYS):
        key = store.key("point", _payload(i))
        store.put(key, "point", _payload(i), _result(i))


def test_compact_races_concurrent_writers(tmp_path):
    """Compaction during a write burst loses nothing and the final
    pass counts every record."""
    barrier = _CTX.Barrier(2 + 1)      # 2 writers + the compacting parent
    procs = [_CTX.Process(target=_put_burst_proc,
                          args=(str(tmp_path), i, barrier), daemon=True)
             for i in range(2)]
    for p in procs:
        p.start()
    store = ResultStore(tmp_path)
    barrier.wait()
    for _ in range(5):                 # sweep while puts are landing
        store.compact()
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)
    stats = store.compact()
    assert stats.entries == N_KEYS
    assert stats.pruned == 0
    for i in range(N_KEYS):
        assert store.get(store.key("point", _payload(i))) is not None
