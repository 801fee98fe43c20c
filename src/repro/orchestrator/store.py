"""Content-addressed on-disk result store (checkpoint/resume).

Every finished simulation point is written to ``.repro_cache/`` as one
JSON file named by the SHA-256 of its *full description*: the task kind
(worker function), the canonical JSON of its payload (``SimConfig`` +
runner kwargs for simulation points), the code version and the store
format version.  Re-running an interrupted campaign therefore only
simulates the missing points; everything already on disk is served
back byte-identically (Python's JSON float encoding is repr-based, so
summaries round-trip bit-exactly).

Layout::

    <root>/
        meta.json                   # {"format": 1}
        objects/<k[:2]>/<k>.json    # one record per completed task

Each record is self-describing -- ``{"key", "kind", "payload",
"result", "code_version", "created", "elapsed_s"}`` -- so the store
doubles as a stable results-artifact format that external tooling can
read without importing this package.

Writes are atomic (temp file + ``os.replace``): a worker killed
mid-write never leaves a half-record, it just leaves a missing point
for the next run to redo.  Corrupt or truncated records read as
misses, never as errors.

The store is safe for **many concurrent writer processes** (the local
worker pool, remote fabric workers streaming results back, several
``repro serve`` requests sharing one warm cache):

* ``meta.json`` is created atomically too (temp file + ``os.replace``),
  so a cold store hammered by N first-writers never exposes a
  half-written marker; concurrent creation is idempotent -- every
  writer produces the same bytes and the last rename wins.
* records live in 256 two-hex-digit shard directories
  (``objects/<k[:2]>/``), so concurrent writers of different keys
  rarely contend on one directory, and same-key writers converge on
  identical content (keys are content hashes of the full task
  description, so a double-write is a benign overwrite).
* :meth:`ResultStore.compact` prunes corrupt or mis-filed records
  and removes empty shard directories -- ``repro cache compact`` from
  the CLI.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..canon import canonical_json, digest

#: bump when the record schema changes; old entries then read as misses
STORE_FORMAT = 1

DEFAULT_CACHE_DIR = ".repro_cache"


def code_version() -> str:
    """The running sources' version: part of every store key, and
    what a fabric worker's hello must match."""
    # imported lazily: repro/__init__ imports this module
    from .. import __version__
    return __version__


@dataclass(frozen=True)
class StoreInfo:
    """Summary of a store's on-disk contents."""

    root: str
    entries: int
    total_bytes: int

    def oneline(self) -> str:
        mb = self.total_bytes / 1e6
        return f"{self.root}: {self.entries} results, {mb:.2f} MB"


@dataclass(frozen=True)
class CompactStats:
    """Outcome of one :meth:`ResultStore.compact` pass."""

    entries: int
    total_bytes: int
    pruned: int
    removed_dirs: int

    def oneline(self) -> str:
        return (f"{self.entries} records kept "
                f"({self.total_bytes / 1e6:.2f} MB), "
                f"{self.pruned} corrupt pruned, "
                f"{self.removed_dirs} empty shards removed")


class ResultStore:
    """Content-addressed JSON store under ``root`` (created lazily)."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    # -- keys -----------------------------------------------------------

    def key(self, kind: str, payload: Mapping[str, Any]) -> str:
        """Content hash of one task: kind + payload + code version."""
        return digest({
            "format": STORE_FORMAT,
            "kind": kind,
            "code_version": code_version(),
            "payload": payload,
        })

    # -- records --------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / (key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a record, or ``None`` on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def put(self, key: str, kind: str, payload: Mapping[str, Any],
            result: Any, elapsed_s: Optional[float] = None) -> None:
        """Atomically persist one finished task."""
        record = {
            "key": key,
            "kind": kind,
            "code_version": code_version(),
            "format": STORE_FORMAT,
            "created": time.time(),
            "elapsed_s": elapsed_s,
            "payload": payload,
            "result": result,
        }
        path = self._path(key)
        self._ensure_meta()
        self._write_atomic(path, canonical_json(record) + "\n")

    def _write_atomic(self, path: Path, text: str) -> None:
        """Write ``text`` to ``path`` via temp file + ``os.replace``.

        Concurrent writers of the same path each rename a complete
        file into place; readers only ever observe one whole version.
        A concurrent compaction may prune the (momentarily empty)
        shard directory between our ``mkdir`` and ``mkstemp`` -- that
        window is retried; once the temp file exists the directory is
        non-empty and ``rmdir`` cannot take it away.
        """
        for _ in range(16):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                continue               # shard dir pruned under us; redo
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, path)
                return
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        raise OSError(f"shard directory for {path} kept vanishing")

    def _ensure_meta(self) -> None:
        """Create ``meta.json`` atomically (idempotent under races).

        ``Path.write_text`` would expose a half-written marker to a
        concurrent first reader; renaming a finished temp file never
        does, and when N cold-store writers race, every one renames
        identical bytes, so whichever ``os.replace`` lands last is
        indistinguishable from the first.
        """
        meta = self.root / "meta.json"
        if meta.exists():
            return
        self._write_atomic(meta, json.dumps({"format": STORE_FORMAT}) + "\n")

    def contains(self, key: str) -> bool:
        return self.get(key) is not None

    # -- maintenance ----------------------------------------------------

    def _object_files(self):
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for sub in sorted(objects.iterdir()):
            if not sub.is_dir():
                continue
            for f in sorted(sub.iterdir()):
                if f.suffix == ".json":
                    yield f

    def info(self) -> StoreInfo:
        """Entry count and total size (for ``repro cache info``)."""
        entries = 0
        total = 0
        for f in self._object_files():
            entries += 1
            total += f.stat().st_size
        return StoreInfo(str(self.root), entries, total)

    def _prune_empty_shards(self) -> int:
        """Remove now-empty shard directories; returns how many."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        removed = 0
        for sub in list(objects.iterdir()):
            if not sub.is_dir():
                continue
            try:
                sub.rmdir()            # only succeeds when empty
                removed += 1
            except OSError:
                pass                   # non-empty, or a racing writer
        return removed

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        for f in list(self._object_files()):
            try:
                f.unlink()
            except FileNotFoundError:
                continue               # a racing clear() got it first
            removed += 1
        self._prune_empty_shards()
        return removed

    # -- compaction -----------------------------------------------------

    def compact(self) -> CompactStats:
        """Prune damage: unreadable records and empty shards.

        Deletes records that fail to parse or whose embedded key does
        not match their filename (a crashed writer cannot produce these
        -- renames are atomic -- but a copied or bit-rotted cache can),
        and removes shard directories left empty.  Concurrent ``put``
        is safe; records landing mid-pass are simply seen by the next
        compaction.
        """
        entries = 0
        total = 0
        pruned = 0
        for f in list(self._object_files()):
            if self.get(f.stem) is None:
                try:
                    f.unlink()
                except OSError:
                    pass
                pruned += 1
                continue
            entries += 1
            total += f.stat().st_size
        return CompactStats(entries, total, pruned,
                            self._prune_empty_shards())
