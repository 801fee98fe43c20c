"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info <topology>``
    Topology facts and, per supporting scheme, routing-table
    statistics and the checked deadlock-freedom verdict.

``run``
    One simulation; prints the run summary and, with ``--links``, the
    link-utilisation snapshot.

``sweep``
    A latency-vs-traffic curve over a list of injection rates.

``experiment <id>``
    Regenerate one registered artefact (``fig7a`` ... ``table3``, the
    ablations, the ``resilience`` / ``recovery`` / ``tournament``
    studies; see ``list``) under a profile and print the rendered
    report -- under the bench and paper profiles, ending with the
    verdict on each claim made about it.  ``--arg KEY=VALUE``
    (repeatable) sets a parameter the experiment declares (``list``
    shows them); ``--json FILE`` also writes the result as JSON, for
    the experiments that declare a JSON form.

``schemes``
    The routing-scheme registry: what each scheme declares.

``traffic``
    The traffic registry: destination patterns and arrival processes
    with their capability declarations and keyword arguments.

``list``
    The experiment registry, each id with its declared parameters.

``cache {info,clear,compact}``
    Inspect, empty or compact the orchestrator's on-disk result store
    (``compact`` prunes corrupt records and removes empty shard
    directories).

``fabric worker``
    A remote campaign worker: listens on ``--listen host:port`` and
    executes tasks leased to it by a coordinator (any command run with
    ``--fabric``).  With ``--tls-cert PEM --tls-key PEM`` every session
    is TLS-wrapped; the coordinator pins the matching bundle with
    ``--tls-ca PEM``.

``serve``
    Long-running HTTP service: accepts campaign specs on
    ``POST /campaign`` and streams NDJSON progress/results, sharing
    one warm result store across requests.

``sweep`` and ``experiment`` accept ``--workers N`` (parallel worker
pool) or ``--fabric host:port,...`` (remote fabric workers),
``--cache-dir`` and ``--no-cache`` (result store); a repeated
invocation of a completed campaign is served entirely from the store.

A value the run cannot be described with -- an unknown registered
name, an undeclared or mistyped ``KEY=VALUE``, an unparsable comma
list, an execution setting its pool refuses -- is reported as
``repro: error: ...`` with exit status 2.

Examples::

    python -m repro info torus
    python -m repro run --topology cplant --routing itb --policy rr \
        --traffic uniform --rate 0.05
    python -m repro sweep --routing updown --rates 0.005,0.01,0.015,0.02
    python -m repro sweep --workers 4 --rates 0.005,0.01,0.02,0.03
    python -m repro experiment fig7a --profile bench --workers 4
    python -m repro experiment fig12a --arg radius=4
    python -m repro experiment tournament --arg schemes=itb,dor \
        --arg patterns=uniform --arg failures=0 --json tournament.json
    python -m repro fabric worker --listen 127.0.0.1:7101   # on each box
    python -m repro sweep --fabric 127.0.0.1:7101,127.0.0.1:7102 \
        --rates 0.005,0.01,0.02,0.03
    python -m repro serve --port 8651
    python -m repro cache info
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# what the parser and every simulating verb need; a verb imports the
# rest of its own stack (the study catalogue, the sweep, the pools), so
# a fresh ``repro run`` loads the run path and nothing else
from .config import SimConfig
from .orchestrator.store import DEFAULT_CACHE_DIR, ResultStore
from .registry import UsageError, comma_list
from .routing.policies import POLICIES
from .routing.schemes import SCHEMES
from .runner import get_graph, get_tables, run_simulation
from .sim.engines import ENGINES
from .topology import TOPOLOGIES, size_kwargs, sized_topologies
from .traffic.defaults import DEFAULT_ARRIVAL, DEFAULT_PATTERN
from .traffic.registry import ARRIVALS, PATTERNS
from .units import ns

#: ``--profile`` choices: the names of the profiles in
#: :mod:`repro.experiments.profiles`, which ``experiment`` imports
PROFILES = ("bench", "paper", "test")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", default="torus",
                   choices=sized_topologies())
    p.add_argument("--routing", default="itb", choices=SCHEMES.names())
    p.add_argument("--policy", default="rr", choices=POLICIES.names())
    p.add_argument("--traffic", default=DEFAULT_PATTERN,
                   choices=PATTERNS.names(),
                   help="destination pattern; see 'repro traffic'")
    p.add_argument("--traffic-arg", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="pattern keyword argument (repeatable); declared "
                        "kwargs are listed by 'repro traffic'")
    p.add_argument("--arrival", default=DEFAULT_ARRIVAL,
                   choices=ARRIVALS.names(),
                   help="arrival process; see 'repro traffic'")
    p.add_argument("--arrival-arg", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="arrival keyword argument (repeatable)")
    p.add_argument("--message-bytes", type=int, default=512)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup-ns", type=float, default=100_000)
    p.add_argument("--measure-ns", type=float, default=400_000)
    p.add_argument("--engine", default="packet", choices=ENGINES.names())
    p.add_argument("--rows", type=int, default=None,
                   help="grid rows, for the topologies declaring them "
                        "(see 'repro info'; default: the paper's size)")
    p.add_argument("--cols", type=int, default=None,
                   help="grid columns, likewise")
    p.add_argument("--hosts-per-switch", type=int, default=None,
                   help="hosts per switch, likewise")


#: execution flags -> keyword arguments of :class:`Executor` (each
#: flag's argparse ``dest``).  Only the flags given are forwarded: the
#: pool that uses a setting holds its default and its bound, and
#: refuses a bad value -- or a flag that does not apply, ``--tls-ca``
#: without ``--fabric``, ``--workers`` with it -- with a
#: :class:`UsageError`, before anything runs
_EXEC_FLAGS = {
    "--workers": dict(dest="workers", type=int,
                      help="parallel local simulation workers (1 = "
                           "in-process); a fabric has one per address"),
    "--task-timeout": dict(dest="timeout_s", type=float,
                           metavar="SECONDS",
                           help="per-attempt timeout (hung workers are "
                                "killed and the point retried)"),
    "--retries": dict(dest="retries", type=int,
                      help="extra attempts for crashed/hung points"),
    "--retry-backoff": dict(dest="retry_backoff_s", type=float,
                            metavar="SECONDS",
                            help="base delay before re-running a failed "
                                 "point (doubled per attempt, with "
                                 "jitter)"),
    "--fabric": dict(dest="fabric", metavar="HOST:PORT,...",
                     help="lease points to remote fabric workers "
                          "(started with 'repro fabric worker') instead "
                          "of local processes"),
    "--tls-ca": dict(dest="tls_ca", metavar="PEM",
                     help="pin fabric worker connections to this CA "
                          "bundle (workers must serve the matching "
                          "certificate via --tls-cert)"),
}


def _add_exec_options(p: argparse.ArgumentParser) -> None:
    """Orchestrator knobs: worker pool + result store."""
    for flag, spec in _EXEC_FLAGS.items():
        p.add_argument(flag, default=argparse.SUPPRESS, **spec)
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="result-store directory (checkpoint/resume)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk result store")


def _executor_kwargs(args: argparse.Namespace) -> dict:
    """:class:`Executor` keyword arguments: the store, and the
    execution flags given (:data:`_EXEC_FLAGS`)."""
    given = {spec["dest"]: getattr(args, spec["dest"])
             for spec in _EXEC_FLAGS.values() if spec["dest"] in args}
    return dict(given,
                store=None if args.no_cache else ResultStore(args.cache_dir))


def _print_point(event: dict) -> None:
    """Render one point event of the executor's ledger on stderr."""
    took = f" {event['elapsed_s']:.1f}s" if event["status"] == "done" else ""
    eta = f"  eta {event['eta_s']:.0f}s" if "eta_s" in event else ""
    print(f"[{event['completed']}/{event['total']}] {event['label']}: "
          f"{event['status']}{took}{eta}", file=sys.stderr, flush=True)


def _make_executor(args: argparse.Namespace):
    from .orchestrator.campaign import Executor
    return Executor(on_point=_print_point, **_executor_kwargs(args))


def _config_from(args: argparse.Namespace, rate: float) -> SimConfig:
    traffic_kwargs = PATTERNS.parse_kwargs(args.traffic, args.traffic_arg)
    arrival_kwargs = ARRIVALS.parse_kwargs(args.arrival, args.arrival_arg)
    return SimConfig(
        topology=args.topology,
        topology_kwargs=size_kwargs(args.topology, args.rows, args.cols,
                                    args.hosts_per_switch),
        routing=args.routing, policy=args.policy,
        traffic=args.traffic, traffic_kwargs=traffic_kwargs,
        arrival=args.arrival, arrival_kwargs=arrival_kwargs,
        injection_rate=rate, message_bytes=args.message_bytes,
        seed=args.seed, warmup_ps=ns(args.warmup_ns),
        measure_ps=ns(args.measure_ns), engine=args.engine)


def cmd_info(args: argparse.Namespace) -> int:
    from .routing.analysis import route_statistics
    spec = TOPOLOGIES.get(args.topology)
    g = get_graph(args.topology, {})
    print(f"{g.name}: {g.num_switches} switches, {g.num_hosts} hosts, "
          f"{g.num_links} inter-switch cables")
    print(f"  {spec.description}; kwargs: {_kwarg_line(spec.kwargs)}")
    degrees = sorted({g.degree(s) for s in g.switches()})
    diameter = max(max(r) for r in g.all_pairs_distances())
    print(f"switch degrees {degrees}, diameter {diameter}")
    print(f"topologies: {', '.join(TOPOLOGIES.names())}")
    print(f"traffic patterns: {', '.join(PATTERNS.supported(g))}")
    for name, policy in POLICIES.items():
        print(f"policy {name:9s} {policy.description}")
    for name, engine in ENGINES.items():
        print(f"engine {name:9s} "
              f"{', '.join(sorted(engine.capabilities())) or '-'}")
    for scheme in SCHEMES.supported(g):
        tables = get_tables(args.topology, {}, scheme)
        st = route_statistics(g, tables)
        tables.validate(g)      # a table that can deadlock stops here
        deps = sum(map(len, tables.channel_dependencies().values()))
        print(f"{scheme:7s}: {st.fraction_minimal:6.1%} minimal, "
              f"avg distance {st.avg_distance_sp:.2f}, "
              f"{st.avg_alternatives:.1f} alternatives/pair, "
              f"ITBs/msg SP {st.avg_itbs_sp:.2f} / RR {st.avg_itbs_rr:.2f}; "
              f"deadlock-free: {deps} channel dependencies, acyclic")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from(args, args.rate)
    reports: list = []
    summary = run_simulation(cfg, collect_links=args.links,
                             perf=reports.append, profile_path=args.profile)
    print(summary.oneline())
    print(f"  network latency {_ns(summary.avg_network_latency_ns)}, "
          f"max {_ns(summary.max_latency_ns)}, "
          f"{summary.messages_delivered} delivered "
          f"/ {summary.messages_generated} generated")
    if summary.itb_peak_bytes:
        print(f"  in-transit pool peak {summary.itb_peak_bytes} B, "
              f"{summary.itb_overflow_count} overflows")
    if args.links and summary.link_utilization is not None:
        from .metrics.linkmap import (LinkMapResult, grid_shape,
                                      render_link_map)
        res = LinkMapResult("run", cfg.label(), cfg.label(),
                            cfg.injection_rate, summary.link_utilization,
                            summary)
        print(render_link_map(res, grid_shape(cfg)))
    if args.perf or args.profile:
        print(f"  perf: {reports[0].oneline()}")
    if args.profile:
        print(f"  profile written to {args.profile} "
              f"(inspect with: python -m pstats {args.profile})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweep import sweep_rates
    rates = comma_list(args.rates, float, "--rates")
    base = _config_from(args, rates[0])
    executor = _make_executor(args)
    curve = sweep_rates(base, rates, executor=executor)
    print(f"{'offered':>9s} {'accepted':>9s} {'lat(ns)':>10s} {'sat':>4s}")
    for r in curve.runs:
        lat = (f"{r.avg_latency_ns:10.0f}"
               if r.avg_latency_ns is not None else "       n/a")
        print(f"{r.offered_flits_ns_switch:9.4f} "
              f"{r.accepted_flits_ns_switch:9.4f} {lat} "
              f"{'yes' if r.saturated else 'no':>4s}")
    print(f"throughput (knee): {curve.throughput():.4f} flits/ns/switch")
    print(f"points: {executor.stats.oneline()}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.profiles import BENCH, PAPER, TEST
    from .experiments.registry import (EXPERIMENTS, render_claims,
                                       run_experiment)
    profile = {p.name: p for p in (BENCH, PAPER, TEST)}[args.profile]
    exp = EXPERIMENTS.get(args.exp_id)
    kwargs = EXPERIMENTS.parse_kwargs(args.exp_id, args.arg)
    if args.json and exp.to_json is None:
        with_json = [n for n, e in EXPERIMENTS.items() if e.to_json]
        raise UsageError(f"experiment {args.exp_id!r} has no JSON form; "
                         f"--json is for: {', '.join(with_json)}")
    executor = _make_executor(args)
    result = run_experiment(args.exp_id, profile, executor, **kwargs)
    print(exp.render(result))
    if args.plot and exp.plot is not None:
        print()
        print(exp.plot(result))
    verdicts = render_claims(exp, result, profile)
    if verdicts is not None:
        print()
        print(verdicts)
    print(f"points: {executor.stats.oneline()}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(exp.to_json(result), f, indent=2)
        print(f"JSON artifact written to {args.json}", file=sys.stderr)
    return 0


def cmd_schemes(_args: argparse.Namespace) -> int:
    for name, s in SCHEMES.items():
        print(f"{name:12s} {'multipath' if s.multipath else 'single-path'}")
        print(f"{'':12s} {s.description}")
        print(f"{'':12s} topologies: {s.topology_note}")
    return 0


def _ns(value: Optional[float]) -> str:
    """A latency in ns, or ``n/a`` when nothing was delivered."""
    return "n/a" if value is None else f"{value:.0f} ns"


def _kwarg_line(kwargs) -> str:
    return ", ".join(k.describe() for k in kwargs) or "none"


def cmd_traffic(_args: argparse.Namespace) -> int:
    print("destination patterns")
    for name, spec in PATTERNS.items():
        print(f"  {name:12s} {spec.description}")
        print(f"  {'':12s} topologies: {spec.topology_note}"
              + (f"; {_kwarg_line(spec.kwargs)}" if spec.kwargs else ""))
    print("arrival processes")
    for name, spec in ARRIVALS.items():
        line = f"  {name:12s} {spec.description}"
        print(line)
        if spec.kwargs:
            print(f"  {'':12s} {_kwarg_line(spec.kwargs)}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    if args.cache_cmd == "info":
        print(store.info().oneline())
    elif args.cache_cmd == "compact":
        print(store.compact().oneline())
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} cached results from {args.cache_dir}")
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    from .orchestrator.fabric import worker_main
    if args.fabric_cmd == "worker":
        try:
            worker_main(args.listen, max_sessions=args.max_sessions,
                        tls_cert=args.tls_cert, tls_key=args.tls_key,
                        announce=lambda addr: print(
                            f"fabric worker listening on {addr}",
                            flush=True))
        except KeyboardInterrupt:
            pass
        return 0
    return 2


def cmd_serve(args: argparse.Namespace) -> int:
    from .orchestrator.serve import serve_main
    serve_main(args.host, args.port,
               announce=lambda addr: print(
                   f"repro serve listening on http://{addr} "
                   f"(POST /campaign)", flush=True),
               **_executor_kwargs(args))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:14s} {exp.kind:16s} {exp.description}")
        if exp.kwargs:
            print(f"{'':14s} {'':16s} {_kwarg_line(exp.kwargs)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ITB routing reproduction (Flich et al., ICPP 2000)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="topology + routing-table statistics")
    p.add_argument("topology", choices=sized_topologies())
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("run", help="one simulation run")
    _add_run_options(p)
    p.add_argument("--rate", type=float, default=0.01,
                   help="offered load, flits/ns/switch")
    p.add_argument("--links", action="store_true",
                   help="collect and print link utilisation")
    p.add_argument("--perf", action="store_true",
                   help="print wall-clock / events-per-second counters")
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="dump a cProfile trace of the run to FILE")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="latency-vs-traffic curve")
    _add_run_options(p)
    _add_exec_options(p)
    p.add_argument("--rates", default="0.005,0.01,0.02,0.03",
                   help="comma-separated offered loads")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("experiment", help="regenerate a paper artefact")
    p.add_argument("exp_id")
    p.add_argument("--profile", default="bench", choices=PROFILES)
    p.add_argument("--arg", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="a parameter the experiment declares "
                        "(repeatable); 'repro list' shows them")
    p.add_argument("--plot", action="store_true",
                   help="also render an ASCII latency/traffic plot")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the result as a JSON artifact; an "
                        "experiment with no JSON form is refused "
                        "before it runs")
    _add_exec_options(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("schemes",
                       help="list registered routing schemes and what "
                            "they declare")
    p.set_defaults(fn=cmd_schemes)

    p = sub.add_parser("traffic",
                       help="list registered destination patterns and "
                            "arrival processes with their declared kwargs")
    p.set_defaults(fn=cmd_traffic)

    p = sub.add_parser("list", help="list paper artefacts and studies "
                                    "with their declared parameters")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("cache", help="orchestrator result-store tools")
    p.add_argument("cache_cmd", choices=["info", "clear", "compact"])
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("fabric",
                       help="distributed campaign fabric tools")
    p.add_argument("fabric_cmd", choices=["worker"])
    p.add_argument("--listen", default="127.0.0.1:0",
                   metavar="HOST:PORT",
                   help="address to serve task leases on (port 0 "
                        "picks a free port and prints it)")
    p.add_argument("--max-sessions", type=int, default=None,
                   help="exit after serving N coordinator sessions "
                        "(default: run forever)")
    p.add_argument("--tls-cert", default=None, metavar="PEM",
                   help="serve sessions over TLS with this certificate "
                        "chain (requires --tls-key; coordinators pin "
                        "the matching bundle with --tls-ca)")
    p.add_argument("--tls-key", default=None, metavar="PEM",
                   help="private key for --tls-cert")
    p.set_defaults(fn=cmd_fabric)

    p = sub.add_parser("serve",
                       help="long-running HTTP campaign service "
                            "(NDJSON streaming)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8651)
    _add_exec_options(p)
    p.set_defaults(fn=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        # how the registries, comma_list and size_kwargs refuse a run
        # description: the message names what is declared or available.
        # Anything else -- a plain ValueError from inside a run
        # included -- is a bug's or the executor's and keeps its
        # traceback
        print(f"repro: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
