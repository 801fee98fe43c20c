"""Single-run executor: config in, summary out.

``run_simulation`` builds (or reuses) the topology and routing tables,
instantiates the configured engine through the
:mod:`repro.sim.engines` registry, wires traffic and collectors, runs
warm-up + measurement, and returns a :class:`RunSummary`.  All engine
dispatch happens inside :mod:`repro.sim`; link and ITB statistics come
from the uniform :class:`~repro.sim.base.NetworkModel` accessors, so
every registered engine yields real (never fabricated) numbers or a
clear :class:`~repro.sim.base.UnsupportedCapability` error.

Topology and routing-table construction dominate short runs: tables
are built per destination (one BFS and one shortest-path DAG shared by
every source), with the cyclic collector paused, and an ``itb`` table
builds a pair's routes on its first lookup; at the paper's 8x8 scale
that still costs ~0.05 s for ``updown`` and ~0.06 s for ``itb`` --
several times the array engine's whole event loop -- so both are
memoised per (topology, scheme, root, cap) and a latency sweep pays the
cost once (``repro run --perf`` prints it as ``tables``).  The traffic
of every run is memoised too, keyed by what it is a function of --
topology, workload spec, interval, seed, horizon; *not* scheme, policy
or engine -- so every curve of a figure is offered one shared
:class:`~repro.traffic.base.Schedule` (``--perf``: ``schedule``),
which a batch engine is primed with and any other run replays.  A
schedule the memo misses reads its destinations and replays its
arrival draws from the per-process host-stream memo, keyed by
topology, pattern and seed alone, so the rates of a sweep share each
host's destination stream and arrival generator outputs instead of
re-seeding both per rate.
Caches are explicit and clearable for tests.

A run ends by tearing itself down (``Simulator.clear`` +
``NetworkModel.close``): the network of a finished run is freed by
reference count when ``run_simulation`` returns.

:func:`run_point_task` and :func:`saturation_task` are the two shipped
task kinds, ``point`` and ``saturation``: the doors where a payload
that crossed a process, disk or socket boundary becomes
``run_simulation`` calls.  Importing this module registers both, which
is what lets :func:`repro.orchestrator.lease.execute` know them in any
fresh process.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .canon import freeze
from .config import SimConfig, check_run_options
from .metrics.collector import LatencyCollector
from .metrics.linkstats import collect_link_stats
from .metrics.recovery import RecoveryTracker
from .metrics.saturation import find_saturation
from .metrics.summary import RunSummary
from .orchestrator.lease import POINT_TASK_FN, TASKS
from .perf import PerfReport, now as _now, profile_to
from .routing.policies import make_policy
from .routing.schemes import compute_tables
from .routing.table import RoutingTables
from .sim.base import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT,
                       CAP_ITB_POOL, NO_ITB_STATS)
from .sim.engine import Simulator
from .sim.engines import make_network
from .sim.faults import FaultPlan
from .sim.invariants import audit as audit_invariants
from .sim.reliable import (ReconfigParams, ReconfigurationManager,
                           ReliableParams, ReliableTransport)
from .topology import build as build_topology
from .topology.graph import NetworkGraph
from .topology.validate import check_topology
from .traffic.base import (HostStreams, Schedule, TrafficProcess,
                           per_host_interval_ps)
from .traffic.registry import make_workload

#: memoised topologies and routing tables, capped FIFO: a long-lived
#: worker fed a resilience campaign would otherwise keep one graph and
#: table set per failure set forever.  The caps sit well above any
#: committed experiment's per-process working set (Figs 7-12 use 9
#: table sets, the full tournament 20), so those never evict.
_GRAPH_CACHE: Dict[Tuple, NetworkGraph] = {}
_GRAPH_CACHE_MAX = 32
_TABLE_CACHE: Dict[Tuple, RoutingTables] = {}
_TABLE_CACHE_MAX = 32
#: memoised pregenerated schedules, every run's one traffic source: a
#: schedule is a pure function of (topology, workload spec, interval,
#: seed, horizon) -- not of the routing scheme, policy or engine -- so
#: every run that offers the same traffic (the schemes of a curve, a
#: panel, a campaign or a tournament row; benchmark repeats) primes or
#: replays one shared, read-only :class:`~repro.traffic.base.Schedule`
#: instead of re-drawing two RNG streams per host.  Bounded by
#: *messages held*, oldest evicted first (all 8-12 rates of a curve
#: must survive until the next scheme asks, whatever their sizes): 2 M
#: messages x 16 B of columns = 32 MB, plus 4 B per message of a
#: replayed schedule's chain column; the largest committed working
#: set, Figure 7 at 4x windows, is 27 schedules of ~0.55 M messages.
#: A schedule over the bound by itself is not kept.
_SCHEDULE_CACHE: Dict[Tuple, Schedule] = {}
_SCHEDULE_CACHE_MAX_MESSAGES = 2_000_000
#: held while any of the three memos is evicted from, inserted into,
#: summed or cleared: ``repro serve``'s handler threads run at once,
#: two evictions may pop the same oldest key (the second raises), and a
#: sum over a memo that another thread inserts into mid-iteration raises
_MEMO_LOCK = threading.Lock()
#: the host streams a schedule miss draws from, for the one key read
#: last: a host's destinations are a function of (topology, pattern,
#: pattern kwargs, seed) and its arrival generator one of the seed --
#: neither of the arrival process, interval or horizon -- so every
#: schedule of one key reads a prefix of the same streams
#: (:class:`~repro.traffic.base.HostStreams`: drawn destinations and
#: arrival generator outputs, no generators).  A new key replaces the
#: held one: a sweep or a search works on one key at a time.
_STREAMS: Tuple[Tuple, HostStreams] = ((), HostStreams())


def _memoise(cache: Dict, cap: int, key: Tuple, value: Any) -> None:
    """Insert, evicting the oldest entry once ``cap`` are held."""
    with _MEMO_LOCK:
        if len(cache) >= cap:
            cache.pop(next(iter(cache)))
        cache[key] = value


def _memoise_schedule(key: Tuple, schedule: Schedule) -> None:
    """Insert, evicting oldest-first down to the message bound."""
    room = _SCHEDULE_CACHE_MAX_MESSAGES - len(schedule)
    if room < 0:
        return
    with _MEMO_LOCK:
        held = sum(map(len, _SCHEDULE_CACHE.values()))
        while held > room:
            held -= len(_SCHEDULE_CACHE.pop(next(iter(_SCHEDULE_CACHE))))
        _SCHEDULE_CACHE[key] = schedule


def _host_streams(key: Tuple) -> HostStreams:
    """The host streams of ``key``, replacing the held ones if they
    are another key's.  Threads may race here: each gets streams of its
    own key, and streams are safe to share (see there)."""
    global _STREAMS
    held, streams = _STREAMS
    if held != key:
        streams = HostStreams()
        _STREAMS = (key, streams)
    return streams


def _freeze_kwargs(kwargs: Mapping[str, Any]) -> Tuple:
    """Hashable cache key for (possibly nested) keyword arguments.

    Delegates to :func:`repro.canon.freeze` -- the same canonicalisation
    the orchestrator's result store hashes -- so nested dict/list values
    (e.g. a ``topology_kwargs`` carrying a per-dimension size dict) key
    the memo caches instead of raising ``unhashable type``.
    """
    return freeze(kwargs)


def get_graph(topology: str, topology_kwargs: Mapping[str, Any]
              ) -> NetworkGraph:
    """Build (or fetch the cached) topology and validate it once."""
    key = (topology, _freeze_kwargs(topology_kwargs))
    g = _GRAPH_CACHE.get(key)
    if g is None:
        g = build_topology(topology, **dict(topology_kwargs))
        check_topology(g)
        _memoise(_GRAPH_CACHE, _GRAPH_CACHE_MAX, key, g)
    return g


def get_tables(topology: str, topology_kwargs: Mapping[str, Any],
               scheme: str, root: int = 0, max_routes_per_pair: int = 10
               ) -> RoutingTables:
    """Compute (or fetch the cached) routing tables of ``scheme`` on
    the memoised graph of ``(topology, topology_kwargs)``."""
    key = ((topology, _freeze_kwargs(topology_kwargs)), scheme, root,
           max_routes_per_pair)
    t = _TABLE_CACHE.get(key)
    if t is None:
        t = compute_tables(get_graph(topology, topology_kwargs), scheme,
                           root, max_routes_per_pair)
        _memoise(_TABLE_CACHE, _TABLE_CACHE_MAX, key, t)
    return t


def clear_caches() -> None:
    """Drop memoised graphs, tables, schedules and host streams (each
    host's destinations and arrival generator outputs; tests use
    this)."""
    global _STREAMS
    with _MEMO_LOCK:
        _GRAPH_CACHE.clear()
        _TABLE_CACHE.clear()
        _SCHEDULE_CACHE.clear()
    _STREAMS = ((), HostStreams())


def _coerce(value: Any, cls: type) -> Any:
    """``True`` -> defaults, mapping -> ``from_dict``, instance -> as-is."""
    if value is True:
        return cls()
    if isinstance(value, Mapping):
        return cls.from_dict(value)
    return value


def run_simulation(config: SimConfig, collect_links: bool = False,
                   root: int = 0, watchdog_ps: Optional[int] = None,
                   tables: Optional[RoutingTables] = None,
                   perf: Optional[Callable[[PerfReport], None]] = None,
                   profile_path: Optional[str] = None,
                   fault_plan: Optional[Any] = None,
                   reliable: Optional[Any] = None,
                   reconfig: Optional[Any] = None,
                   collect_percentiles: bool = False,
                   check_invariants: bool = False) -> RunSummary:
    """Execute one simulation run described by ``config``.

    ``collect_links`` additionally gathers the per-link utilisation
    snapshot (Figures 8/9/11).  ``collect_percentiles`` keeps every
    per-message latency sample so the summary carries
    ``p99_latency_ns`` (costs one list append per delivery; off by
    default to keep long runs lean).  ``tables`` lets callers inject
    custom routing tables (the deadlock-demonstration tests route
    *without* ITBs on purpose); by default they are derived from
    ``config.routing`` with the spanning tree rooted at ``root``.  The
    fabric is always ``config.topology``: a custom one is a
    :data:`repro.topology.TOPOLOGIES` registration, a broken one the
    registered ``mutated`` topology.

    ``fault_plan`` (a :class:`repro.sim.FaultPlan` or its ``to_dict``
    form) schedules mid-run link deaths; requires an engine declaring
    ``CAP_DYNAMIC_FAULTS``.  Dropped messages appear in
    ``messages_dropped`` and never count as delivered.

    ``reliable`` (``True``, a :class:`repro.sim.ReliableParams` or its
    ``to_dict`` form) fronts the engine with the end-to-end
    retransmission protocol: message counts in the summary become
    *message*-level (unique deliveries; retransmitted attempts show up
    in ``retransmissions`` / ``duplicate_deliveries``).  ``reconfig``
    (``True``, a :class:`repro.sim.ReconfigParams` or a dict) installs
    the online reconfiguration manager that recomputes and hot-swaps
    the routing tables after each fault; with a fault plan present the
    summary additionally reports ``time_to_recover_ns``, the first
    post-fault window whose accepted traffic is back within 90 % of
    the pre-fault mean (:mod:`repro.metrics.recovery`).

    ``check_invariants`` audits the runtime invariant suite
    (:func:`repro.sim.invariants.audit`: message conservation, channel
    occupancy bounds, ITB byte-accounting) at the warm-up and
    measurement boundaries and raises
    :class:`~repro.sim.invariants.InvariantViolation` on the first
    failure (every engine implements the auditor's hooks).

    ``perf``, a callable, receives the run's frozen
    :class:`repro.perf.PerfReport` (wall clock and events/sec;
    ``perf=reports.append`` keeps them); ``profile_path`` additionally
    dumps a :mod:`cProfile` trace of the whole call to that file.
    Neither affects the simulation itself or its summary.

    ``tables``, ``perf`` and ``profile_path`` are in-process only;
    every other option is plain data (:data:`repro.config.RUN_OPTIONS`)
    and may travel with the config through the orchestrator.
    """
    with profile_to(profile_path):
        t_start = _now()
        config.validate()
        topo_key = (config.topology, _freeze_kwargs(config.topology_kwargs))
        g = get_graph(config.topology, config.topology_kwargs)
        t_tables = _now()
        if tables is None:
            tables = get_tables(config.topology, config.topology_kwargs,
                                config.routing, root,
                                config.params.max_routes_per_pair)
        tables_wall_s = _now() - t_tables

        sim = Simulator()
        policy = make_policy(config.policy, seed=config.seed)
        network = make_network(config.engine, sim, g, tables, policy,
                               config.params,
                               message_bytes=config.message_bytes)
        collector = LatencyCollector(keep_samples=collect_percentiles)
        caps = network.capabilities()
        transport = None
        if reliable:
            transport = ReliableTransport(network,
                                          _coerce(reliable, ReliableParams))
            # the collector sees unique messages at message latency, not
            # per-attempt deliveries (duplicates are suppressed upstream)
            transport.add_message_callback(collector.on_delivered)
        elif (CAP_BATCH_DELIVERY in caps and not policy.needs_feedback
              and fault_plan is None):
            # batch engines report delivery cohorts straight into the
            # collector; per-packet callbacks stay off the hot path
            network.delivery_sink = collector
        else:
            network.add_delivery_callback(collector.on_delivered)
        # adaptive policies learn from delivery latencies; stateless ones
        # declare needs_feedback=False and skip the per-delivery call
        if policy.needs_feedback:
            network.add_delivery_callback(policy.feedback)
        manager = None
        if reconfig:
            manager = ReconfigurationManager(
                network, _coerce(reconfig, ReconfigParams),
                max_routes_per_pair=config.params.max_routes_per_pair)

        interval = per_host_interval_ps(config.injection_rate,
                                        config.message_bytes, g)
        pattern, arrivals = make_workload(
            g, config.traffic, config.traffic_kwargs,
            config.arrival, config.arrival_kwargs, interval)
        # permutations may silence some hosts (e.g. the 32 palindromic ids
        # under bit-reversal): the load actually offered to the network is
        # proportionally lower than the nominal per-host rate
        effective_rate = (config.injection_rate
                          * len(pattern.active_hosts()) / g.num_hosts)
        traffic = TrafficProcess(
            sim, transport if transport is not None else network,
            pattern, arrivals, seed=config.seed,
            max_messages=config.max_messages)

        if watchdog_ps is None:
            # generous: many times the zero-load service time of a message
            watchdog_ps = 200 * (config.message_bytes
                                 * config.params.flit_cycle_ps
                                 + 20 * config.params.routing_delay_ps)
        network.install_watchdog(watchdog_ps)

        if fault_plan is not None:
            fault_plan = _coerce(fault_plan, FaultPlan)
            network.install_fault_plan(fault_plan)

        tracker = None
        if fault_plan:
            tracker = RecoveryTracker(max(1, config.measure_ps // 20))
            if transport is not None:
                transport.add_message_callback(tracker.on_delivered)
            else:
                network.add_delivery_callback(tracker.on_delivered)

        t_setup_done = _now()
        # every run offers the memoised traffic of its (topology,
        # workload, interval, seed, horizon): drawn once in bulk (see
        # TrafficProcess.pregenerate), then primed into a batch engine
        # -- no per-message generation events on the heap -- or
        # replayed, event for event as TrafficProcess.start would send it
        t_end = config.warmup_ps + config.measure_ps
        skey = (topo_key, config.traffic,
                _freeze_kwargs(config.traffic_kwargs),
                config.arrival, _freeze_kwargs(config.arrival_kwargs),
                interval, config.seed, t_end)
        batch = (CAP_BATCH_INJECT in caps and transport is None
                 and not config.max_messages)
        schedule = _SCHEDULE_CACHE.get(skey)
        if schedule is None:
            schedule = traffic.pregenerate(t_end, _host_streams(
                skey[:3] + (config.seed,)))
            _memoise_schedule(skey, schedule)
        elif batch:
            traffic.adopt_schedule(schedule)
        t_loop_start = _now()
        if batch:
            network.prime_schedule(schedule)
        else:
            traffic.replay(schedule)
        sim.run_until(config.warmup_ps)
        # engine first: batch engines flush work at or before the warm-up
        # boundary into the collector, which the reset below then discards
        network.reset_stats()
        collector.reset()
        if check_invariants:
            # warm-up boundary: conservation laws, occupancy bounds and
            # ITB byte-accounting must hold exactly here
            audit_invariants(network).raise_if_failed()
        if tracker is not None:
            tracker.start(config.warmup_ps)
        delivered_before = network.delivered
        generated_before = network.generated
        dropped_before = network.dropped
        unroutable_before = network.dropped_unroutable
        transport_before = transport.stats() if transport is not None else None
        reconfig_before = (manager.reconfigurations
                           if manager is not None else 0)
        backlog_before = network.in_flight
        sim.run_until(config.warmup_ps + config.measure_ps)
        network.finalize()
        if check_invariants:
            # measurement boundary; with traffic stopped and the fabric
            # drained the stricter quiescent-state laws apply too
            audit_invariants(network,
                             drained=network.in_flight == 0
                             and sim.pending_events == 0).raise_if_failed()
        t_sim_done = _now()
        backlog_growth = network.in_flight - backlog_before

        if perf is not None:
            perf(PerfReport(wall_s=t_sim_done - t_start,
                            setup_wall_s=t_setup_done - t_start,
                            tables_wall_s=tables_wall_s,
                            schedule_wall_s=t_loop_start - t_setup_done,
                            sim_wall_s=t_sim_done - t_loop_start,
                            events=sim.events,
                            messages_delivered=network.delivered,
                            sim_time_ps=sim.now))

        links = None
        if collect_links:
            links = collect_link_stats(network, config.measure_ps,
                                       config.params)

        dropped = network.dropped - dropped_before
        unroutable = network.dropped_unroutable - unroutable_before
        if transport is not None:
            ts = transport.stats()
            tdelta = {k: ts[k] - transport_before[k] for k in ts}
            messages_generated = tdelta["messages"]
            messages_delivered = tdelta["delivered"]
        else:
            tdelta = {"retransmissions": 0, "duplicates": 0,
                      "permanent_losses": 0, "recovered": 0}
            messages_generated = network.generated - generated_before
            messages_delivered = network.delivered - delivered_before

        time_to_recover_ns = None
        if tracker is not None:
            ttr = tracker.time_to_recover_ps(
                fault_plan.first_t_ps, config.warmup_ps + config.measure_ps)
            if ttr is not None:
                time_to_recover_ns = ttr / 1_000

        # engines without a finite-pool model have no ITB statistics to
        # report; zeros are the true values for an unbounded pool
        itb = (network.itb_stats() if CAP_ITB_POOL in caps
               else NO_ITB_STATS)
        # cut the sim <-> network <-> transport cycles, so the network
        # is freed by reference count on return and dead runs do not
        # pile up until some later full collection
        sim.clear()
        network.close()
        return RunSummary(
            config=config,
            offered_flits_ns_switch=effective_rate,
            accepted_flits_ns_switch=collector.accepted_flits_ns_switch(
                config.measure_ps, g.num_switches),
            messages_delivered=messages_delivered,
            messages_generated=messages_generated,
            messages_dropped=dropped,
            dropped_in_flight=dropped - unroutable,
            dropped_unroutable=unroutable,
            retransmissions=tdelta["retransmissions"],
            duplicate_deliveries=tdelta["duplicates"],
            permanent_losses=tdelta["permanent_losses"],
            recovered_messages=tdelta["recovered"],
            reconfigurations=(manager.reconfigurations - reconfig_before
                              if manager is not None else 0),
            time_to_recover_ns=time_to_recover_ns,
            avg_latency_ns=collector.avg_latency_ns(),
            avg_network_latency_ns=collector.avg_network_latency_ns(),
            max_latency_ns=(collector.max_latency_ps / 1_000
                            if collector.messages else None),
            avg_itbs_per_message=collector.avg_itbs_per_message(),
            itb_overflow_count=itb.overflow_count,
            itb_peak_bytes=itb.peak_bytes,
            link_utilization=links,
            backlog_growth=backlog_growth,
            p99_latency_ns=(collector.percentile_ns(0.99)
                            if collect_percentiles else None),
        )


def run_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker function of the ``point`` task kind: one simulation.

    ``payload`` is ``{"config": SimConfig dict, "runner_kwargs":
    plain dict}`` (:meth:`repro.orchestrator.Point.payload`); the
    result is the ``RunSummary`` dict.  The payload may have come off
    a socket, so the options are checked here again.
    """
    options = payload.get("runner_kwargs") or {}
    check_run_options(options)
    return run_simulation(SimConfig.from_dict(payload["config"]),
                          **options).to_dict()


TASKS.register(run_point_task, POINT_TASK_FN)

#: task kind of :func:`saturation_task`
SATURATION_TASK_FN = "saturation"


def saturation_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker function of the ``saturation`` task kind: one search.

    ``payload`` is a point's payload (``config``, the whole
    :class:`SimConfig` with only its rate varied by the search, and
    ``runner_kwargs``) plus ``search``, the keyword arguments of
    :func:`~repro.metrics.saturation.find_saturation`; the result is
    the ``SaturationResult`` dict, every probe run included.  The
    payload may have come off a socket, so the options are checked
    here again, as :func:`run_point_task` does.
    """
    options = payload.get("runner_kwargs") or {}
    check_run_options(options)
    base = SimConfig.from_dict(payload["config"])
    return find_saturation(
        lambda rate: run_simulation(
            base.with_overrides(injection_rate=rate), **options),
        **payload["search"]).to_dict()


TASKS.register(saturation_task, SATURATION_TASK_FN)
