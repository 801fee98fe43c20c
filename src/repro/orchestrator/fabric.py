"""Fabric workers: the processes a lease is handed to, local or remote.

Both ends speak the frames of :mod:`~repro.orchestrator.wire`; who is
leased what, and what happens when a lease is lost, is
:mod:`~repro.orchestrator.lease`'s business.

* **Worker side.**  :func:`serve_session` is the one session loop:
  hello, then ``task`` -> ``execute`` -> ``result`` until the
  coordinator says ``shutdown`` or goes away.  :class:`FabricWorker`
  (``repro fabric worker --listen host:port``) runs it on each TCP
  connection it accepts, a local worker on one end of a ``socketpair``.
* **Coordinator side.**  A slot is one worker session as the scheduler
  sees it: :class:`LocalSlot` forks its worker (no port is opened),
  :class:`FabricPool`'s slots dial ``host:port``, optionally through a
  pinned-CA TLS handshake.  Either way the worker's hello is checked
  for wire format and code version before a task is sent.

**A local worker lives as long as one ``run()``**: forked once per
slot on the caller's thread, it serves every lease that slot is
granted and keeps its graph/table memo caches across them.  It is
replaced (a fork under the scheduler lock) only when a lease on it is
lost: the child died -- EOF on the socket, ``worker died with exit
code N`` -- or outlived the lease timeout and was killed.  A dead
child can corrupt nothing shared: all it owns is its end of a socket.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import ssl
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..registry import UsageError
from .lease import LeasePool, Lost, Task, execute, task_frame
from .store import code_version
from .wire import (WIRE_FORMAT, FrameError, format_addr, parse_addrs,
                   recv_frame, send_frame)

__all__ = ["FabricPool", "FabricWorker", "LocalSlot", "serve_session",
           "worker_main"]

#: seconds a local worker gets to exit after its shutdown frame
#: before it is killed
_EXIT_WAIT_S = 1.0


def _close_quietly(sock: Optional[socket.socket]) -> None:
    if sock is not None:
        try:
            sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def serve_session(conn: socket.socket) -> None:
    """Serve one coordinator session on ``conn``, then close it."""
    conn.settimeout(None)
    try:
        send_frame(conn, {"type": "hello", "pid": os.getpid(),
                          "version": code_version(),
                          "wire": WIRE_FORMAT})
        while True:
            try:
                msg = recv_frame(conn)
            except FrameError:
                return
            if msg is None:
                return                 # coordinator went away
            kind = msg.get("type")
            if kind == "task":
                send_frame(conn, execute(msg))
            elif kind == "shutdown":
                return
            # unknown frame types are ignored: a newer coordinator
            # may probe with messages an older worker predates
    except OSError:
        return                         # session over
    finally:
        _close_quietly(conn)


class FabricWorker:
    """Serves tasks to one coordinator at a time over TCP.

    ``bind`` is ``"host:port"`` (port 0 picks a free one -- read
    :attr:`address` after :meth:`listen`).  ``max_sessions`` bounds how
    many coordinator sessions are served before returning (``None`` =
    forever), which is what lets tests and smoke scripts run a worker
    to natural completion.

    ``tls_cert``/``tls_key`` (both PEM paths, given together) wrap every
    accepted session in TLS.  The model is CA pinning, not a PKI: the
    coordinator verifies the worker's certificate against exactly the
    bundle it was given (``FabricPool(tls_ca=...)``), so a worker
    serving any other certificate -- or a plaintext impostor on the
    same port -- fails the handshake and is treated as unreachable.
    Nothing authenticates the *coordinator*: any peer that reaches the
    port may lease work, which is why a worker runs registered task
    kinds only (:data:`~repro.orchestrator.lease.TASKS`) and belongs on
    a trusted network (DESIGN section 8.8).
    """

    def __init__(self, bind: str = "127.0.0.1:0",
                 max_sessions: Optional[int] = None,
                 tls_cert: Optional[str] = None,
                 tls_key: Optional[str] = None):
        (self._host, self._port), = parse_addrs(bind)
        self.max_sessions = max_sessions
        if (tls_cert is None) != (tls_key is None):
            raise UsageError("tls_cert and tls_key must be given together")
        self._tls: Optional[ssl.SSLContext] = None
        if tls_cert is not None:
            self._tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self._tls.load_cert_chain(tls_cert, tls_key)
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()

    @property
    def address(self) -> str:
        if self._sock is None:
            raise RuntimeError("worker is not listening yet")
        host, port = self._sock.getsockname()[:2]
        return format_addr((host, port))

    def listen(self) -> str:
        """Bind + listen; returns the resolved ``host:port``.

        Split from :meth:`serve_forever` so a parent process can bind
        (learning the port), fork, and let the child inherit the live
        socket -- the pattern the tests and CI smoke use.
        """
        if self._sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self._host, self._port))
            sock.listen(8)
            sock.settimeout(0.5)       # poll the stop flag in accept()
            self._sock = sock
        return self.address

    def close(self) -> None:
        self._stop.set()
        _close_quietly(self._sock)

    def serve_forever(self) -> None:
        """Accept coordinator sessions until stopped."""
        self.listen()
        served = 0
        try:
            while not self._stop.is_set():
                if self.max_sessions is not None \
                        and served >= self.max_sessions:
                    break
                try:
                    conn, _peer = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break              # socket closed under us
                if self._tls is not None:
                    try:
                        conn.settimeout(5.0)   # bound the handshake
                        conn = self._tls.wrap_socket(conn,
                                                     server_side=True)
                    except (OSError, ssl.SSLError):
                        # failed handshake (plaintext probe, wrong CA):
                        # not a session -- drop it and keep serving
                        _close_quietly(conn)
                        continue
                served += 1
                serve_session(conn)
        finally:
            self.close()


def worker_main(bind: str = "127.0.0.1:0",
                max_sessions: Optional[int] = None,
                announce: Optional[Callable[[str], None]] = None,
                tls_cert: Optional[str] = None,
                tls_key: Optional[str] = None) -> None:
    """Run one fabric worker until interrupted (CLI entry point)."""
    worker = FabricWorker(bind, max_sessions=max_sessions,
                          tls_cert=tls_cert, tls_key=tls_key)
    addr = worker.listen()
    if announce:
        announce(addr)
    worker.serve_forever()


def _local_worker(conn: socket.socket, coordinator_end: socket.socket
                  ) -> None:
    """Entry point of a forked local worker: one session, then exit."""
    coordinator_end.close()
    try:
        serve_session(conn)
    except KeyboardInterrupt:
        pass                           # ^C reaches the whole process group


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------

class _FrameSlot:
    """One worker session, coordinator side: hello check, ``task``
    out, ``result`` in.  Subclasses supply the connection."""

    def __init__(self, name: str):
        self.name = name
        #: the live session; reopen() and close() drop it
        self._conn: Optional[socket.socket] = None
        #: a task is out on it, unanswered
        self._busy = False

    def _lost_text(self) -> str:
        """Why the session ended mid-task."""
        return f"{self.name} lost mid-task"

    def _check_hello(self) -> None:
        """The worker speaks first; refuse one we must not lease to."""
        hello = recv_frame(self._conn)
        if hello is None or hello.get("type") != "hello":
            raise FrameError(f"{self.name} sent no hello")
        if hello.get("wire") != WIRE_FORMAT:
            raise FrameError(f"{self.name} speaks wire format "
                             f"{hello.get('wire')}, coordinator "
                             f"{WIRE_FORMAT}")
        if hello.get("version") != code_version():
            # results are content-addressed by code version; a
            # mismatched worker would silently compute under
            # different sources
            raise FrameError(f"{self.name} runs repro "
                             f"{hello.get('version')}, coordinator "
                             f"{code_version()}")

    def lease(self, task: Task, attempt: int,
              timeout_s: Optional[float]) -> Dict[str, Any]:
        conn = self._conn
        self._busy = True
        try:
            send_frame(conn, task_frame(task, attempt))
        except OSError as exc:
            raise Lost(f"{self.name} refused the task: {exc}",
                       consumed=False) from exc
        conn.settimeout(timeout_s)
        try:
            reply = recv_frame(conn)
        except socket.timeout:
            # the worker may still be computing the stale attempt;
            # reopen() abandons the whole session
            raise Lost(f"timed out after {timeout_s}s on {self.name}")
        except (OSError, FrameError):
            reply = None
        if reply is None:
            raise Lost(self._lost_text())
        conn.settimeout(None)
        self._busy = False
        return reply

    def _drop(self) -> None:
        conn, self._conn, self._busy = self._conn, None, False
        _close_quietly(conn)

    def reopen(self) -> None:
        """Abandon the session; the next lease starts a new one."""
        self._drop()

    def close(self) -> None:
        if self._conn is not None:
            try:
                send_frame(self._conn, {"type": "shutdown"})
                # close() alone would not wake a thread blocked in recv
                self._conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._drop()


class _TcpSlot(_FrameSlot):
    """A remote worker, dialled when first leased to."""

    def __init__(self, addr: Tuple[str, int],
                 tls: Optional[ssl.SSLContext]):
        super().__init__(f"worker {format_addr(addr)}")
        self._addr = addr
        self._tls = tls

    def lease(self, task: Task, attempt: int,
              timeout_s: Optional[float]) -> Dict[str, Any]:
        if self._conn is None:
            try:
                # 5 s caps the dial, the TLS handshake and the hello
                self._conn = socket.create_connection(self._addr,
                                                      timeout=5.0)
                if self._tls is not None:
                    self._conn = self._tls.wrap_socket(self._conn)
                self._check_hello()
                self._conn.settimeout(None)
            except (OSError, FrameError) as exc:   # ssl.SSLError too
                raise Lost(f"{self.name} unreachable: {exc}",
                           consumed=False) from exc
        return super().lease(task, attempt, timeout_s)


class LocalSlot(_FrameSlot):
    """A forked child serving the other end of a ``socketpair``."""

    def __init__(self):
        super().__init__("local worker")
        self._fork()

    def _fork(self) -> None:
        self._conn, theirs = socket.socketpair()
        self._proc = mp.get_context("fork").Process(
            target=_local_worker, args=(theirs, self._conn), daemon=True)
        self._proc.start()
        theirs.close()
        self._check_hello()

    def _reap(self, wait_s: float) -> None:
        self._drop()
        self._proc.join(timeout=wait_s)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()

    def _lost_text(self) -> str:
        self._proc.join(timeout=5.0)
        return f"worker died with exit code {self._proc.exitcode}"

    def reopen(self) -> None:
        """Replace the worker: whatever the old child is still doing
        (a hung task, say) dies with it."""
        self._reap(0.0)
        self._fork()

    def close(self) -> None:
        # mid-task the child cannot read the shutdown frame: kill it
        wait_s = 0.0 if self._busy else _EXIT_WAIT_S
        super().close()
        self._reap(wait_s)


class FabricPool(LeasePool):
    """The scheduler over remote fabric workers.

    ``addrs`` is ``"host:port,..."`` or a list of ``(host, port)``
    tuples.  ``timeout_s`` bounds one attempt on one worker (``None``
    = unbounded: worker *death* is still detected promptly via
    connection loss, only a live-but-hung worker can then stall the
    campaign); it and every other keyword but ``tls_ca`` are the
    scheduler's (:class:`~repro.orchestrator.lease.LeasePool`).  An
    address that refuses ``connect_attempts`` dials or deliveries in a
    row, ``connect_backoff_s`` longer apart each time, is given up on.

    ``tls_ca`` (a PEM bundle path) turns every dial into a TLS
    handshake verified against exactly that bundle (CA pinning --
    hostname checks are off because workers are addressed by IP).  A
    worker whose certificate the bundle does not vouch for fails the
    handshake, which counts as a dial failure like a refused connection.
    """

    def __init__(self, addrs, tls_ca: Optional[str] = None, **schedule: Any):
        if isinstance(addrs, str):
            addrs = parse_addrs(addrs)
        self.addrs: List[Tuple[str, int]] = list(addrs)
        if not self.addrs:
            raise UsageError("fabric needs at least one worker address")
        super().__init__(**schedule)
        self._tls: Optional[ssl.SSLContext] = None
        if tls_ca is not None:
            self._tls = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
            self._tls.check_hostname = False   # workers addressed by IP
            self._tls.verify_mode = ssl.CERT_REQUIRED
            try:
                self._tls.load_verify_locations(cafile=tls_ca)
            except (OSError, ssl.SSLError) as exc:
                raise UsageError(f"tls_ca {tls_ca!r} is not a readable "
                                 f"PEM bundle: {exc}") from exc

    @property
    def workers(self) -> int:
        """Fleet size (drives the Executor's wave dispatch width)."""
        return len(self.addrs)

    def describe_fleet(self) -> str:
        return ",".join(format_addr(a) for a in self.addrs)

    def _open_slots(self, n_tasks: int) -> List[_TcpSlot]:
        # every address, however few the tasks: any of them may be down
        return [_TcpSlot(addr, self._tls) for addr in self.addrs]
