"""In-memory spans recorded by the harness around calls into each layer.

A span is ``{"id", "name", "start", "end", "parent", "point"}``; names
are ``<layer>.<what>`` so a layer's spans are found by prefix.  Spans
live in a list until the run ends (one JSON file is written then), and
timestamps are ``time.perf_counter()`` -- CLOCK_MONOTONIC on Linux,
shared by every process of the run, so spans recorded in forked
children line up with the parent's.  On export a span also gets
``ref_s``, its duration in the reference seconds of :mod:`calibrate`;
every figure derived from spans uses that, so layer times add up to
the end-to-end ones.

``NULL`` is the tracer of the untraced pass: ``span()`` costs one
``yield`` and records nothing, so the same workload code serves both
passes and their difference is the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, point: Optional[str] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        rec = {"id": len(self.spans), "name": name, "point": point,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def export(self, sampler) -> Dict[str, Any]:
        """Plain data, for the pipe back to the parent; ``sampler`` is
        the :class:`calibrate.Sampler` that watched this process."""
        for rec in self.spans:
            rec["ref_s"] = sampler.reference_seconds(
                rec["start"], rec["end"], rec.get("elsewhere", False))
        return {"spans": self.spans, "counts": self.counts}

    def adopt(self, exported: Dict[str, Any], **attrs: Any) -> None:
        """Merge a child's spans, re-numbering ids; its roots hang
        under this tracer's current span."""
        base = len(self.spans)
        root = self._stack[-1] if self._stack else None
        for rec in exported["spans"]:
            rec = dict(rec, **attrs)
            rec["id"] += base
            rec["parent"] = (root if rec["parent"] is None
                             else rec["parent"] + base)
            self.spans.append(rec)
        for name, n in exported["counts"].items():
            self.count(name, n)


class _NullTracer(Tracer):
    @contextmanager
    def span(self, name: str, point: Optional[str] = None,
             **attrs: Any) -> Iterator[None]:
        yield None

    def count(self, name: str, n: float = 1) -> None:
        pass

    def export(self, sampler) -> Dict[str, Any]:
        return {"spans": [], "counts": {}}

    def adopt(self, exported: Dict[str, Any], **attrs: Any) -> None:
        pass


NULL = _NullTracer()


def duration(rec: Dict[str, Any]) -> float:
    """Reference seconds; raw for a span no sampler watched (the
    harness parent's own structural spans)."""
    return rec.get("ref_s", rec["end"] - rec["start"])


def total(spans: List[Dict[str, Any]], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(duration(s) for s in spans if s["name"] == name)


def durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    return [duration(s) for s in spans if s["name"] == name]


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per layer: span time not covered by child spans.

    The harness is sequential within a process, so children never
    overlap each other and a span's self time is its duration minus
    the sum of its direct children's.  ``harness.*`` spans are the
    parent's structural ones (a forked child hangs under each) and
    have no time of their own.
    """
    covered: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration(s)
    out: Dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer == "harness":
            continue
        out[layer] = out.get(layer, 0.0) + duration(s) - covered.get(s["id"], 0.0)
    return out
