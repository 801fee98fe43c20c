"""Parallel sweep orchestrator: lease scheduler, result store, campaigns.

Layers, composable and individually testable:

* :mod:`~repro.orchestrator.lease` -- the one lease scheduler (pending
  queue, per-attempt timeout, bounded retry with backoff, attempt
  tags) that every pool is, over inline, local or remote *slots*, and
  :data:`~repro.orchestrator.lease.TASKS`, the registry of task kinds
  that is all a worker will run;
* :mod:`~repro.orchestrator.pool` -- :class:`WorkerPool`: that
  scheduler over forked local workers (inline at ``workers=1``);
* :mod:`~repro.orchestrator.fabric` -- :class:`FabricWorker`, the
  session loop both local and remote workers run, and
  :class:`FabricPool`: the scheduler over TCP slots speaking the
  length-prefixed JSON frames of :mod:`~repro.orchestrator.wire`;
* :mod:`~repro.orchestrator.store` -- content-addressed on-disk result
  store keyed by a canonical hash of the full point description,
  giving checkpoint/resume, a stable results-artifact format, and a
  concurrent-writer discipline safe for many processes (atomic
  ``meta.json``, sharded objects, ``compact()``);
* :mod:`~repro.orchestrator.serve` -- ``repro serve``:
  :class:`ReproServer`, a long-running HTTP service that accepts
  campaign specs, reuses the warm cache across requests and streams
  NDJSON progress;
* :mod:`~repro.orchestrator.campaign` -- the :class:`Executor` front
  door (store-first, then whichever pool: inline, local processes or
  fabric) and its :class:`ExecutorStats` ledger, whose per-point
  events (plain dicts) the CLI prints and ``repro serve`` streams; the
  one way ``sweep_rates``, every registered experiment and the CLI run
  their points.

The package is a leaf: it imports :mod:`repro.config`,
:mod:`repro.metrics`, :mod:`repro.canon` and :mod:`repro.registry`,
never the simulator or the experiments, which import *it* and register
their task kinds.  Each name below is imported on its first access, so
the runner, which needs only :data:`~repro.orchestrator.lease.TASKS`,
loads neither the pools nor sockets, TLS and HTTP.
"""

from __future__ import annotations

from .. import _lazy_exports

#: submodule -> the public names it lends the package (PEP 562)
_EXPORTS = {
    ".campaign": ("CampaignError", "Executor", "ExecutorStats", "Point"),
    ".fabric": ("FabricPool", "FabricWorker"),
    ".pool": ("Task", "TaskResult", "WorkerPool"),
    ".serve": ("ReproServer",),
    ".store": ("CompactStats", "DEFAULT_CACHE_DIR", "ResultStore",
               "StoreInfo"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
