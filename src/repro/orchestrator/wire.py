"""Fabric wire protocol: length-prefixed JSON frames over TCP.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Plain JSON keeps the protocol debuggable with
``nc`` and readable by non-Python tooling; the length prefix makes
message boundaries explicit so a frame is either delivered whole or
the connection error is surfaced -- there is no "half a message"
state for the coordinator or worker to misparse.

Message vocabulary (the full protocol -- see DESIGN §8):

========== ============= =============================================
direction  ``type``      fields
========== ============= =============================================
w -> c     ``hello``     ``pid``, ``version`` (repro ``__version__``),
                         ``wire`` (:data:`WIRE_FORMAT`)
c -> w     ``task``      ``task_id``, ``attempt``, ``fn`` (a task kind
                         registered in the worker), ``payload``
w -> c     ``result``    ``task_id``, ``attempt``, ``status``
                         (``"ok"``/``"err"``), ``value``, ``elapsed_s``
c -> w     ``shutdown``  end the session
========== ============= =============================================

Every result frame echoes the lease's ``attempt`` tag; the scheduler
(:mod:`~repro.orchestrator.lease`) drops mismatches, so a stale flush
from an abandoned lease can never be attributed to a newer attempt of
the same task.  Local workers speak these frames too, over a
``socketpair``.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from ..registry import UsageError

__all__ = ["FrameError", "MAX_FRAME_BYTES", "WIRE_FORMAT",
           "format_addr", "parse_addrs", "recv_frame", "recv_raw_frame",
           "send_frame"]

#: bump when the message vocabulary changes incompatibly; coordinator
#: and worker refuse to pair across versions (2: ``fn`` carries a task
#: kind, no longer a ``module:callable`` import path)
WIRE_FORMAT = 2

#: hard ceiling per frame -- a garbled length prefix (e.g. an HTTP
#: client talking to a fabric port) must not look like a 2 GB read
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(ConnectionError):
    """A frame arrived truncated or with an implausible length."""


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialise ``message`` and write it as one frame."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame start."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise FrameError(f"connection closed mid-frame ({got}/{n} B)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF (peer closed between
    frames).  Raises :class:`FrameError` on truncation or garbage."""
    frame = recv_raw_frame(sock)
    if frame is None:
        return None
    try:
        message = json.loads(frame[_LEN.size:].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(f"frame is not an object: {message!r}")
    return message


def recv_raw_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame as raw bytes (length prefix included), without
    decoding the payload; ``None`` on clean EOF at a frame boundary.

    :func:`recv_frame` decodes what this reads.  It is also the tap a
    frame-aware relay pumps through (the test suite's chaos proxy,
    ``tests/chaos.py``): it preserves frame boundaries, so faults
    injected between reads (drops, delays, duplicates, torn frames)
    act on whole protocol messages rather than an opaque byte stream.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds "
                         f"{MAX_FRAME_BYTES} (not a fabric peer?)")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed before frame body")
    return header + body


def parse_addrs(spec: str) -> List[Tuple[str, int]]:
    """``"host:port,host:port"`` -> ``[(host, port), ...]``; anything
    else is a :class:`~repro.registry.UsageError`."""
    addrs: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise UsageError(f"fabric address must be host:port, "
                             f"got {part!r}")
        addrs.append((host, int(port)))
    if not addrs:
        raise UsageError(f"no fabric worker addresses in {spec!r}")
    return addrs


def format_addr(addr: Tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"
