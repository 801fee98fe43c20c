"""``run_simulation`` replayed stage by stage, from outside.

:class:`StagedRunner` performs the same sequence of **public** calls
the runner makes for a plain point -- graph -> tables -> policy/network
-> workload/schedule -> loop -> summary -- with a span around each call
into a layer, and memoises what the runner memoises (graph per
topology, tables per (topology, scheme), the last 8 pregenerated
schedules), so a warm repeat is warm here too.  The traced pass checks
that every summary it produces equals ``run_simulation``'s for the same
config; if the runner ever gains a stage this replay lacks, that check
fails and the benchmark -- not the number -- is what needs correcting.

With ``probe=True`` the runner additionally times, flagged
``probe=True`` in their spans, the public functions that are *off* the
run path of the point at hand: the stages of ``compute_tables`` on each
new graph, ``RoutingTables.validate`` on each new table, and
``TrafficProcess.pregenerate`` (once) for an engine that injects
event-driven.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
from layers import L
from spans import Tracer

#: the runner keeps this many pregenerated schedules (FIFO)
SCHEDULE_MEMO = 8


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=list)


class StagedRunner:
    def __init__(self, tracer: Tracer, probe: bool = False) -> None:
        self.tracer = tracer
        self.probe = probe
        self._graphs: Dict[Tuple, Any] = {}
        self._tables: Dict[Tuple, Any] = {}
        self._schedules: Dict[Tuple, list] = {}
        self._pregenerate_probed = False

    # -- memoised layers -------------------------------------------------

    def graph(self, cfg, point: Optional[str]):
        key = (cfg.topology, _canon(dict(cfg.topology_kwargs)))
        g = self._graphs.get(key)
        if g is None:
            with self.tracer.span("topology.build", point):
                g = L.build_topology(cfg.topology, **dict(cfg.topology_kwargs))
                L.check_topology(g)
            self.tracer.count("topology.graphs")
            self._graphs[key] = g
            if self.probe:
                self._probe_routing_stages(g, cfg, point)
        return g, key

    def tables(self, cfg, g, topo_key: Tuple, point: Optional[str]):
        cap = cfg.params.max_routes_per_pair
        key = (topo_key, cfg.routing, cap)
        t = self._tables.get(key)
        if t is None:
            with self.tracer.span("routing.tables", point,
                                  scheme=cfg.routing):
                t = L.compute_tables(g, cfg.routing, 0, cap, False)
            self.tracer.count("routing.tables_built")
            self.tracer.count("routing.route_alternatives",
                              sum(len(a) for a in t.routes.values()))
            self._tables[key] = t
            if self.probe:
                with self.tracer.span("routing.validate", point,
                                      probe=True, scheme=cfg.routing):
                    t.validate(g)
        return t

    def _probe_routing_stages(self, g, cfg, point: Optional[str]) -> None:
        if not layers.available("routing.stages"):
            return
        tr = self.tracer
        cap = cfg.params.max_routes_per_pair
        with tr.span("routing.tree", point, probe=True):
            tree = L.build_spanning_tree(g, 0)
            ud = L.orient_links(g, 0, tree)
        with tr.span("routing.simple_routes", point, probe=True):
            L.compute_simple_routes(g, ud)
        with tr.span("routing.minimal_paths", point, probe=True):
            for dst in g.switches():
                dist = g.shortest_distances(dst)
                for src in g.switches():
                    if src != dst:
                        L.enumerate_minimal_paths(g, src, dst, dist, cap)
        with tr.span("routing.itb_routes", point, probe=True):
            L.build_itb_routes(g, ud, cap, False)

    # -- one point -------------------------------------------------------

    def run(self, cfg, point: Optional[str] = None):
        """Staged equivalent of ``run_simulation(cfg)``."""
        tr = self.tracer
        with tr.span("experiments.run", point):
            cfg.validate()
            g, topo_key = self.graph(cfg, point)
            tables = self.tables(cfg, g, topo_key, point)

            with tr.span("sim.construct", point):
                sim = L.Simulator()
                policy = L.make_policy(cfg.policy, seed=cfg.seed)
                network = L.make_network(cfg.engine, sim, g, tables, policy,
                                         cfg.params,
                                         message_bytes=cfg.message_bytes)
                collector = L.LatencyCollector(keep_samples=False)
                caps = network.capabilities()
                if (L.CAP_BATCH_DELIVERY in caps
                        and not policy.needs_feedback):
                    network.delivery_sink = collector
                else:
                    network.add_delivery_callback(collector.on_delivered)
                if policy.needs_feedback:
                    network.add_delivery_callback(policy.feedback)

            with tr.span("traffic.workload", point):
                interval = L.per_host_interval_ps(
                    cfg.injection_rate, cfg.message_bytes, g)
                pattern, arrivals = self._workload(cfg, g, interval)
                effective_rate = (cfg.injection_rate
                                  * len(pattern.active_hosts()) / g.num_hosts)
                traffic = L.TrafficProcess(sim, network, pattern, arrivals,
                                           seed=cfg.seed,
                                           max_messages=cfg.max_messages)

            with tr.span("sim.construct", point):
                network.install_watchdog(
                    200 * (cfg.message_bytes * cfg.params.flit_cycle_ps
                           + 20 * cfg.params.routing_delay_ps))

            t_end = cfg.warmup_ps + cfg.measure_ps
            batch = L.CAP_BATCH_INJECT in caps and not cfg.max_messages
            schedule = None
            if batch:
                skey = (topo_key, cfg.traffic,
                        _canon(dict(cfg.traffic_kwargs)), cfg.arrival,
                        _canon(dict(cfg.arrival_kwargs)), interval,
                        cfg.seed, t_end)
                schedule = self._schedules.get(skey)
                if schedule is None:
                    with tr.span("traffic.pregenerate", point):
                        schedule = traffic.pregenerate(t_end)
                    if len(self._schedules) >= SCHEDULE_MEMO:
                        self._schedules.pop(next(iter(self._schedules)))
                    self._schedules[skey] = schedule
                else:
                    traffic.adopt_schedule(schedule)
            elif self.probe and not self._pregenerate_probed:
                self._pregenerate_probed = True
                with tr.span("traffic.pregenerate", point, probe=True):
                    p2, a2 = self._workload(cfg, g, interval)
                    L.TrafficProcess(sim, network, p2, a2,
                                     seed=cfg.seed).pregenerate(t_end)

            with tr.span("sim.loop", point, engine=cfg.engine):
                if batch:
                    network.prime_schedule(schedule)
                else:
                    traffic.start()
                sim.run_until(cfg.warmup_ps)
                network.reset_stats()
                collector.reset()
                delivered0 = network.delivered
                generated0 = network.generated
                dropped0 = network.dropped
                unroutable0 = network.dropped_unroutable
                backlog0 = network.in_flight
                sim.run_until(t_end)
                network.finalize()

            with tr.span("metrics.finalize", point):
                dropped = network.dropped - dropped0
                unroutable = network.dropped_unroutable - unroutable0
                itb = (network.itb_stats() if L.CAP_ITB_POOL in caps
                       else L.NO_ITB_STATS)
                summary = L.RunSummary(
                    config=cfg,
                    offered_flits_ns_switch=effective_rate,
                    accepted_flits_ns_switch=(
                        collector.accepted_flits_ns_switch(
                            cfg.measure_ps, g.num_switches)),
                    messages_delivered=network.delivered - delivered0,
                    messages_generated=network.generated - generated0,
                    messages_dropped=dropped,
                    dropped_in_flight=dropped - unroutable,
                    dropped_unroutable=unroutable,
                    avg_latency_ns=collector.avg_latency_ns(),
                    avg_network_latency_ns=(
                        collector.avg_network_latency_ns()),
                    max_latency_ns=(collector.max_latency_ps / 1_000
                                    if collector.messages else None),
                    avg_itbs_per_message=collector.avg_itbs_per_message(),
                    itb_overflow_count=itb.overflow_count,
                    itb_peak_bytes=itb.peak_bytes,
                    link_utilization=None,
                    backlog_growth=network.in_flight - backlog0,
                )
                summary.to_dict()

            tr.count("traffic.messages_scheduled", traffic.generated)
            tr.count("sim.events", sim.events)
            tr.count("sim.messages_delivered", network.delivered)
        return summary

    @staticmethod
    def _workload(cfg, g, interval: int):
        return L.make_workload(g, cfg.traffic, cfg.traffic_kwargs,
                               cfg.arrival, cfg.arrival_kwargs, interval)

    def sweep(self, base, rates: Sequence[float], prefix: str) -> List[Any]:
        """Staged equivalent of sequential ``sweep_rates(base, rates)``
        (ascending, one saturated point kept past the first)."""
        runs: List[Any] = []
        sat_seen = 0
        for rate in sorted(rates):
            s = self.run(base.with_overrides(injection_rate=rate),
                         f"{prefix}@{rate:.6g}")
            runs.append(s)
            if s.saturated:
                sat_seen += 1
                if sat_seen > 1:
                    break
        return runs
