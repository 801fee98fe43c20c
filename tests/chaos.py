"""Deterministic chaos injection for the campaign fabric wire.

The fabric's robustness claims (lease re-grant, attempt-tagged
results, per-address give-up, zero lost points) are only worth
something if a deliberately hostile network cannot break them.  This
test fixture module provides that hostile network:

* :class:`ChaosPlan` -- a seed-derived schedule of wire faults,
  mirroring :class:`repro.sim.faults.FaultPlan` for the simulated
  fabric.  Given the same seed and the same stream of
  connections/frames, the same frames are dropped, delayed, torn,
  corrupted, reset, stalled or replayed.
* :class:`ChaosProxy` -- a frame-aware TCP proxy between
  :class:`~repro.orchestrator.fabric.FabricPool` and one
  :class:`~repro.orchestrator.fabric.FabricWorker`.  It pumps whole
  wire frames (:func:`repro.orchestrator.wire.recv_raw_frame`) in each
  direction and applies the plan's faults between them.
* :class:`ChaosFabric` -- one proxy per worker address; hand its
  ``addrs`` to ``Executor(fabric=...)`` and the whole campaign runs
  under chaos.

Faults only ever perturb the *transport*: task execution and result
payloads are untouched (corruption garbles a frame, which the receiver
rejects whole -- the wire's length-prefix framing guarantees no half
message is ever parsed).  The fabric's retry discipline must therefore
reassemble a bit-identical campaign, which
``tests/test_chaos.py::TestChaosAcceptance`` pins.

An injection *budget* (``max_events``) bounds the total number of
faults, so a campaign always terminates: once the budget is spent the
proxy becomes a transparent relay.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.orchestrator.wire import format_addr, parse_addrs, recv_raw_frame

#: fault kinds in decision order (first match per frame wins); a frame
#: suffers at most one fault so probabilities stay interpretable
FAULT_KINDS = ("reset", "truncate", "drop", "duplicate", "corrupt",
               "stall", "delay")

#: direction tags
C2W, W2C = "c->w", "w->c"

#: seconds a proxy waits to dial its backend; the pumps then block
#: without a timeout, since a worker sends nothing while a task runs
DIAL_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ChaosPlan:
    """Seed-derived schedule of fabric wire faults.

    Each probability is evaluated per forwarded frame (in decision
    order :data:`FAULT_KINDS`; at most one fault fires per frame).
    The draws come from a per-``(proxy, connection, direction)`` RNG
    seeded from ``seed``, so a plan is a *schedule*, not a coin flip:
    replaying the same connection/frame stream replays the same
    faults.  ``duplicate`` applies only worker -> coordinator (result
    replays); every other fault applies to both directions.
    """

    #: derives every RNG stream; same seed = same schedule
    seed: int = 0
    #: P(drop the frame silently)
    drop: float = 0.0
    #: P(hold the frame for ~``delay_ms`` before forwarding)
    delay: float = 0.0
    #: mean injected delivery delay, milliseconds
    delay_ms: float = 25.0
    #: P(flip bytes in the frame payload -- receiver sees garbage)
    corrupt: float = 0.0
    #: P(forward a torn prefix of the frame, then cut the connection)
    truncate: float = 0.0
    #: P(reset the connection instead of forwarding)
    reset: float = 0.0
    #: P(stall the stream for ``stall_ms`` -- the slow-worker case)
    stall: float = 0.0
    #: stall duration, milliseconds (size it against the lease timeout)
    stall_ms: float = 250.0
    #: P(replay a worker->coordinator frame a second time)
    duplicate: float = 0.0
    #: total faults injected across the whole fabric before the proxy
    #: turns transparent (guarantees campaign termination); 0 disables
    #: chaos outright
    max_events: int = 64

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "corrupt", "truncate", "reset",
                     "stall", "duplicate"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"chaos probability {name} must be in "
                                 f"[0, 1], got {p}")
        if self.delay_ms < 0 or self.stall_ms < 0:
            raise ValueError("chaos delays must be non-negative")
        if self.max_events < 0:
            raise ValueError("chaos budget must be non-negative")

    @classmethod
    def quiet(cls) -> "ChaosPlan":
        """A transparent plan (no faults) -- the control arm."""
        return cls(max_events=0)

    @classmethod
    def storm(cls, seed: int = 0) -> "ChaosPlan":
        """Every fault kind at once -- the acceptance schedule."""
        return cls(seed=seed, drop=0.08, delay=0.12, delay_ms=15.0,
                   corrupt=0.06, truncate=0.04, reset=0.04, stall=0.03,
                   stall_ms=300.0, duplicate=0.06, max_events=48)

    def rng_for(self, proxy: int, conn: int, direction: str
                ) -> random.Random:
        """The deterministic draw stream of one pumped direction."""
        return random.Random(f"{self.seed}/{proxy}/{conn}/{direction}")


class ChaosLog:
    """Thread-safe record of every injected fault."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {}
        #: (kind, proxy, conn, direction, frame_index)
        self.events: List[Tuple[str, int, int, str, int]] = []

    def record(self, kind: str, proxy: int, conn: int, direction: str,
               frame: int) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1
            self.events.append((kind, proxy, conn, direction, frame))

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())


class _Budget:
    """Shared injection budget across every proxy of a fabric."""

    def __init__(self, limit: int) -> None:
        self._lock = threading.Lock()
        self._left = limit

    def take(self) -> bool:
        with self._lock:
            if self._left <= 0:
                return False
            self._left -= 1
            return True


class ChaosProxy:
    """Frame-aware chaos TCP proxy in front of one fabric worker.

    Listens on an ephemeral localhost port; every accepted coordinator
    connection gets its own backend connection, and the two directions
    are pumped frame by frame through the plan's fault decisions.
    Framing stays intact for every fault except ``truncate`` (which
    deliberately tears a frame and then cuts the connection, so the
    receiver can never misparse the stream).
    """

    def __init__(self, backend: Tuple[str, int], plan: ChaosPlan,
                 index: int = 0, budget: Optional[_Budget] = None,
                 log: Optional[ChaosLog] = None,
                 bind_host: str = "127.0.0.1") -> None:
        self.backend = backend
        self.plan = plan
        self.index = index
        self.budget = budget if budget is not None \
            else _Budget(plan.max_events)
        self.log = log if log is not None else ChaosLog()
        self._bind_host = bind_host
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_seq = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def listen(self) -> Tuple[str, int]:
        """Bind the proxy's listening socket; returns its address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._bind_host, 0))
        sock.listen(16)
        self._sock = sock
        return sock.getsockname()[:2]

    @property
    def address(self) -> Tuple[str, int]:
        assert self._sock is not None, "listen() first"
        return self._sock.getsockname()[:2]

    def start(self) -> "ChaosProxy":
        if self._sock is None:
            self.listen()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"chaos-accept-{self.index}",
            daemon=True)
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._closed = True
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._closed:
            try:
                client, _addr = self._sock.accept()
            except OSError:
                return                      # listener closed
            conn_id = self._conn_seq
            self._conn_seq += 1
            try:
                upstream = socket.create_connection(
                    self.backend, timeout=DIAL_TIMEOUT_S)
            except OSError:
                client.close()              # backend gone: refuse
                continue
            upstream.settimeout(None)       # a task may outlive the dial
            pair = _ConnPair(client, upstream)
            for src, dst, direction in ((client, upstream, C2W),
                                        (upstream, client, W2C)):
                threading.Thread(
                    target=self._pump, name=f"chaos-pump-{direction}",
                    args=(pair, src, dst, direction, conn_id),
                    daemon=True).start()

    def _pump(self, pair: "_ConnPair", src: socket.socket,
              dst: socket.socket, direction: str, conn_id: int) -> None:
        plan = self.plan
        rng = plan.rng_for(self.index, conn_id, direction)
        frame_idx = 0
        try:
            while True:
                raw = recv_raw_frame(src)
                if raw is None:
                    break
                fault = self._decide(rng, direction)
                if fault is not None:
                    self.log.record(fault, self.index, conn_id,
                                    direction, frame_idx)
                frame_idx += 1
                if fault == "reset":
                    break
                if fault == "truncate":
                    cut = max(5, len(raw) - 1 - rng.randrange(
                        max(1, len(raw) - 5)))
                    dst.sendall(raw[:cut])
                    break
                if fault == "drop":
                    continue
                if fault == "corrupt":
                    raw = self._corrupt(raw, rng)
                elif fault == "stall":
                    time.sleep(plan.stall_ms / 1000.0)
                elif fault == "delay":
                    time.sleep(plan.delay_ms / 1000.0
                               * (0.5 + rng.random()))
                dst.sendall(raw)
                if fault == "duplicate":
                    dst.sendall(raw)
        except (OSError, ConnectionError):
            pass
        finally:
            pair.close()

    def _decide(self, rng: random.Random, direction: str
                ) -> Optional[str]:
        plan = self.plan
        for kind in FAULT_KINDS:
            p = getattr(plan, kind)
            if p <= 0.0:
                continue
            if kind == "duplicate" and direction != W2C:
                continue
            if rng.random() < p:
                if not self.budget.take():
                    return None         # budget spent: transparent relay
                return kind
        return None

    @staticmethod
    def _corrupt(raw: bytes, rng: random.Random) -> bytes:
        """Flip a few payload bytes; the length prefix stays intact so
        the stream never desynchronises -- the receiver rejects the
        garbled frame whole."""
        if len(raw) <= 4:
            return raw
        body = bytearray(raw)
        for _ in range(min(3, len(raw) - 4)):
            i = 4 + rng.randrange(len(raw) - 4)
            body[i] ^= 0xFF
        return bytes(body)


class _ConnPair:
    """Both sockets of one proxied connection; closed exactly once."""

    def __init__(self, client: socket.socket,
                 upstream: socket.socket) -> None:
        self.client = client
        self.upstream = upstream
        self._lock = threading.Lock()
        self._closed = False

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


@dataclass
class ChaosFabric:
    """One :class:`ChaosProxy` per fabric worker, sharing one budget.

    Usage::

        with ChaosFabric("127.0.0.1:9001,127.0.0.1:9002",
                         ChaosPlan.storm(seed=7)) as chaos:
            ex = Executor(fabric=chaos.addrs, retries=8, ...)
            ...
        assert chaos.log.total > 0
    """

    backends: Union[str, Sequence[Tuple[str, int]]]
    plan: ChaosPlan
    log: ChaosLog = field(default_factory=ChaosLog)

    def __post_init__(self) -> None:
        if isinstance(self.backends, str):
            self.backends = parse_addrs(self.backends)
        budget = _Budget(self.plan.max_events)
        self.proxies = [
            ChaosProxy(tuple(addr), self.plan, index=i, budget=budget,
                       log=self.log)
            for i, addr in enumerate(self.backends)]

    def start(self) -> "ChaosFabric":
        for proxy in self.proxies:
            proxy.start()
        return self

    @property
    def addrs(self) -> str:
        """Proxy addresses in ``Executor(fabric=...)`` form."""
        return ",".join(format_addr(p.address) for p in self.proxies)

    def close(self) -> None:
        for proxy in self.proxies:
            proxy.close()

    def __enter__(self) -> "ChaosFabric":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
