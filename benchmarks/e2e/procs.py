"""Process and scratch-directory hygiene for the harness.

Everything the benchmark starts dies on every exit path:

* work runs in **forked children** of the (single-threaded) harness
  process, each leader of its own process group, so pool workers and
  ``repro fabric worker`` subprocesses a child starts are swept with one
  ``killpg`` -- after normal completion, on an exception, from
  ``atexit`` and from the SIGTERM/SIGALRM handlers alike;
* scratch lives under ``benchmarks/e2e/.work/`` (the benchmark may
  write only inside its checkout) and is removed on the way out.

Fork, not spawn, is the point of the measurement: a child inherits an
interpreter that has *imported* ``repro`` but built nothing, which is
exactly the state of a ``WorkerPool`` worker or a fresh CLI process
after import.  It is safe because the harness parent never starts a
thread.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

import layers

WORK_ROOT = os.path.join(layers.BENCH_DIR, ".work")

#: process groups that may still have live members
_GROUPS: set = set()
#: Popen objects started by *this* process (fabric workers, probes)
_POPENS: List[subprocess.Popen] = []
_SCRATCH: List[str] = []


class ChildError(RuntimeError):
    """A forked child raised, died, or overran its deadline."""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _await_group_gone(pgid: int) -> None:
    """Wait (briefly) until no member of the group is left; its leader
    must have been reaped, a zombie still counts as a member."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def cleanup() -> None:
    """Kill and reap everything still registered; drop scratch dirs."""
    for proc in list(_POPENS):
        stop_popen(proc)
    for pgid in list(_GROUPS):
        _kill_group(pgid)
        try:
            os.waitpid(pgid, 0)        # the forked child leads the group
        except ChildProcessError:
            pass
        _await_group_gone(pgid)
    _GROUPS.clear()
    for path in _SCRATCH:
        shutil.rmtree(path, ignore_errors=True)
    _SCRATCH.clear()
    try:
        os.rmdir(WORK_ROOT)            # only when no other run uses it
    except OSError:
        pass


def _on_signal(signum, _frame) -> None:
    cleanup()
    # SIGALRM is the harness's own deadline; report it as a failure
    sys.stderr.write(f"benchmark interrupted by signal {signum}\n")
    os._exit(3)


def install_guards(deadline_s: Optional[int] = None) -> None:
    """Arm ``atexit`` + signal cleanup, and an overall deadline."""
    atexit.register(cleanup)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, _on_signal)
    if deadline_s:
        signal.alarm(deadline_s)


def scratch_dir(tag: str) -> str:
    """A fresh directory under ``.work/`` (removed by :func:`cleanup`)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)
    _SCRATCH.append(path)
    return path


@contextmanager
def scratch(tag: str) -> Iterator[str]:
    """A scratch directory that lives as long as the ``with`` block."""
    path = scratch_dir(tag)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        _SCRATCH.remove(path)


# -- forked children ----------------------------------------------------

def _child_main(conn, fn: Callable, args: tuple, cwd: str) -> None:
    os.setpgid(0, 0)
    # the parent's handlers would clean up the *parent's* registry
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, signal.SIG_DFL)
    signal.alarm(0)
    _POPENS.clear()
    _GROUPS.clear()
    _SCRATCH.clear()
    os.chdir(cwd)
    os.environ.update(layers.child_env(cwd))
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:
        conn.send(("err", traceback.format_exc()))
    finally:
        for proc in list(_POPENS):
            stop_popen(proc)
        conn.close()


def call_in_child(fn: Callable, *args: Any, cwd: str,
                  timeout_s: float = 150.0) -> Any:
    """Run ``fn(*args)`` in a forked child with ``cwd`` as its working
    directory, HOME and cache home; return its (picklable) result."""
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(send, fn, args, cwd))
    proc.start()
    send.close()
    _GROUPS.add(proc.pid)
    status, payload = "died", None
    try:
        if recv.poll(timeout_s):
            try:
                status, payload = recv.recv()
            except EOFError:
                pass
        else:
            status = "timeout"
    finally:
        recv.close()
        proc.join(timeout=5.0 if status == "ok" else 0.1)
        _kill_group(proc.pid)          # sweep stragglers of the group
        proc.join(timeout=10.0)
        _await_group_gone(proc.pid)
        _GROUPS.discard(proc.pid)
    if status == "ok":
        return payload
    if status == "err":
        raise ChildError(f"{fn.__name__} raised in child:\n{payload}")
    raise ChildError(f"{fn.__name__}: child {status} "
                     f"(exit code {proc.exitcode})")


def children_peak_rss_mb() -> float:
    """Largest resident set of any reaped descendant so far (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- subprocesses ---------------------------------------------------------

def spawn(argv: List[str], home: str, **popen_kwargs) -> subprocess.Popen:
    """Start ``python <argv>`` with the checkout's ``src`` importable
    and per-user directories inside ``home``; tracked for cleanup."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=home,
                            env=layers.child_env(home), **popen_kwargs)
    _POPENS.append(proc)
    return proc


def stop_popen(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        pass
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()
    if proc in _POPENS:
        _POPENS.remove(proc)


def run_python(argv: List[str], home: str) -> str:
    """One fresh interpreter run to completion; its stdout.  Raises
    when it exits non-zero."""
    proc = spawn(argv, home, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=120.0)
    finally:
        stop_popen(proc)
    if proc.returncode != 0:
        raise ChildError(f"python {' '.join(argv)} exited "
                         f"{proc.returncode}:\n{err}")
    return out


def spawn_repro(argv: List[str], marker: str, home: str
                ) -> Tuple[subprocess.Popen, str]:
    """Start ``python -m repro <argv>`` (a fabric worker, a server);
    return the process and the address it announced after ``marker``."""
    proc = spawn(["-m", "repro", *argv], home, stdout=subprocess.PIPE,
                 stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if marker in line:
            return proc, line.split(marker, 1)[1].split()[0]
    stop_popen(proc)
    raise ChildError(f"repro {argv[0]} never announced its address")
