"""``repro serve``: simulation-as-a-service over HTTP.

A long-running :class:`ReproServer` accepts campaign specs and streams
progress and results back as NDJSON (one JSON object per line), so a
client renders figures progressively instead of waiting for the last
point.  Every request shares one warm :class:`ResultStore` -- the
second user asking for the paper's fig7a gets it served from cache --
and the store's concurrent-write discipline makes simultaneous
campaigns safe.  Execution is whatever the server was started with:
in-process (``workers=1``), a local worker pool, or a remote fabric
fleet (``--fabric host:port,...``).

Endpoints
---------

``GET /healthz``
    ``{"ok": true, "store": {...}, "fabric": ..., "workers": N,
    "fleet": ...}``: the size and description of the pool the server's
    executors run on (a fabric's addresses, or ``N local workers``).

``GET /cache``
    The store summary (entry count, bytes).

``POST /campaign``
    Body is a JSON campaign spec, either an explicit point list::

        {"points": [{"config": {...SimConfig...},
                     "runner_kwargs": {...}}, ...]}

    or a rate sweep::

        {"config": {...SimConfig...}, "rates": [0.004, 0.008, ...],
         "runner_kwargs": {...}}

    ``runner_kwargs`` may name only the plain-data run options
    (:data:`repro.config.RUN_OPTIONS`); a malformed spec, one naming
    anything else, or one whose config names nothing registered
    (:meth:`SimConfig.validate`) is answered 400 before any point runs.

    The response is ``application/x-ndjson``: an ``accepted`` event,
    one ``point`` event per finished point, streamed as it finishes
    (the executor ledger's event, :meth:`~.campaign.ExecutorStats.record`:
    ``completed``, ``total``, ``label``, status ``cached`` / ``done`` /
    ``FAILED``, ``elapsed_s`` and, once known, ``eta_s``), then one
    terminal ``done`` event carrying every result in input order and
    the ledger's counts (or an ``error`` event).  Results are ``RunSummary`` dicts -- the same
    JSON the result store persists, bit-identical across sequential,
    pooled and fabric execution.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List

from ..config import SimConfig
from .campaign import CampaignError, Executor, Point

__all__ = ["ReproServer", "points_from_spec", "serve_main"]

#: refuse request bodies beyond this (a campaign spec is small; a
#: gigabyte body is a mistake or an attack)
MAX_SPEC_BYTES = 32 * 1024 * 1024


def points_from_spec(spec: Dict[str, Any]) -> List[Point]:
    """Validate and expand one campaign spec into simulation points.

    Whatever is wrong with the spec -- its shape, a value of the wrong
    type, a name no registry holds -- is a :class:`ValueError`, raised
    before any point exists to run.
    """
    try:
        points = _expand_spec(spec)
        for point in points:
            point.config.validate()
    except TypeError as exc:
        raise ValueError(f"malformed campaign spec: {exc}") from exc
    return points


def _expand_spec(spec: Dict[str, Any]) -> List[Point]:
    if not isinstance(spec, dict):
        raise ValueError("campaign spec must be a JSON object")
    if "points" in spec:
        raw = spec["points"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'points' must be a non-empty list")
        points = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "config" not in entry:
                raise ValueError(f"point {i} must be an object with "
                                 "a 'config'")
            cfg = SimConfig.from_dict(entry["config"])
            points.append(Point(str(entry.get("id", i)), cfg,
                                entry.get("runner_kwargs") or {}))
        return points
    if "config" in spec and "rates" in spec:
        base = SimConfig.from_dict(spec["config"])
        rates = spec["rates"]
        if not isinstance(rates, list) or not rates:
            raise ValueError("'rates' must be a non-empty list")
        kwargs = spec.get("runner_kwargs") or {}
        return [Point(f"rate:{float(r):.6g}",
                      base.with_overrides(injection_rate=float(r)), kwargs)
                for r in sorted(float(r) for r in rates)]
    raise ValueError("campaign spec needs either 'points' or "
                     "'config' + 'rates'")


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0 framing: no Content-Length on the stream, the close
    # delimits it -- which is exactly what NDJSON consumers expect
    protocol_version = "HTTP/1.0"
    server: "ReproServer"

    def log_message(self, fmt, *args):  # pragma: no cover - noise
        if self.server.verbose:
            super().log_message(fmt, *args)

    # -- helpers --------------------------------------------------------

    def _send_json(self, code: int, obj: Dict[str, Any]) -> None:
        body = (json.dumps(obj) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _emit(self, event: Dict[str, Any]) -> None:
        self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))
        self.wfile.flush()

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:
        if self.path in ("/healthz", "/"):
            self._send_json(200, self.server.health())
        elif self.path == "/cache":
            self._send_json(200, self.server.cache_info())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        if self.path != "/campaign":
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0 or length > MAX_SPEC_BYTES:
                raise ValueError(f"Content-Length must be 1..."
                                 f"{MAX_SPEC_BYTES}, got {length}")
            spec = json.loads(self.rfile.read(length).decode("utf-8"))
            points = points_from_spec(spec)
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        self._emit({"event": "accepted", "points": len(points)})
        try:
            executor = self.server.make_executor(self._emit)
            summaries = executor.run_points(points)
        except CampaignError as exc:
            self._emit({"event": "error", "error": str(exc)})
            return
        except Exception as exc:       # keep the server alive
            self._emit({"event": "error",
                        "error": f"{type(exc).__name__}: {exc}"})
            return
        self._emit({
            "event": "done",
            "points": [p.point_id for p in points],
            "results": [s.to_dict() for s in summaries],
            "stats": {"simulated": executor.stats.simulated,
                      "cached": executor.stats.cached,
                      "failed": executor.stats.failed},
        })


class ReproServer(ThreadingHTTPServer):
    """The ``repro serve`` HTTP front end.

    One instance owns one execution recipe -- ``executor_kwargs``, the
    keyword arguments of :class:`Executor` (``store=``, ``workers=``,
    ``fabric=``, ``tls_ca=``, ...) -- and each request builds a private
    :class:`Executor` from it, so concurrent campaigns share the warm
    cache without sharing any mutable orchestration state.
    """

    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, **executor_kwargs: Any):
        self.executor_kwargs = executor_kwargs
        # a misspelt or out-of-range setting fails here, before binding
        self._pool = self.make_executor().pool
        super().__init__((host, port), _Handler)
        self.verbose = verbose

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def make_executor(self, on_point=None) -> Executor:
        """A private executor handing each point event to ``on_point``."""
        return Executor(on_point=on_point, **self.executor_kwargs)

    def health(self) -> Dict[str, Any]:
        return {"ok": True, "fabric": self.executor_kwargs.get("fabric"),
                "workers": self._pool.workers,
                "fleet": self._pool.describe_fleet(),
                "store": self.cache_info()}

    def cache_info(self) -> Dict[str, Any]:
        store = self.executor_kwargs.get("store")
        if store is None:
            return {"enabled": False}
        info = store.info()
        return {"enabled": True, "root": info.root,
                "entries": info.entries, "total_bytes": info.total_bytes}

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name=f"repro-serve-{self.address}",
                                  daemon=True)
        thread.start()
        return thread


def serve_main(host: str, port: int, announce=None,
               **executor_kwargs: Any) -> None:
    """Run the server until interrupted (CLI entry point)."""
    server = ReproServer(host, port, verbose=True, **executor_kwargs)
    if announce:
        announce(server.address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
