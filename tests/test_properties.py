"""Property-based tests (hypothesis) on the core invariants.

Random irregular topologies are the adversarial input here: every
routing-layer guarantee the paper's deadlock-freedom argument rests on
must hold on *any* connected switch graph, not just the three evaluated
topologies.
"""

import random
import sys
import threading
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing import SCHEMES, RoutingTables, compute_tables
from repro.routing.itb import (_cut_indices, assemble_itb_routes,
                               build_itb_routes, split_path_at_violations)
from repro.routing.minimal import minimal_hops_to
from repro.routing.reference import (count_minimal_paths,
                                     enumerate_legal_paths,
                                     enumerate_minimal_path_links,
                                     enumerate_minimal_paths,
                                     legal_shortest_distances)
from repro.routing.simple_routes import compute_simple_routes
from repro.routing.spanning_tree import build_spanning_tree
from repro.routing.routes import (hop, leg_overheads, leg_switches,
                                  path_hops, route_hops, route_switches)
from repro.routing.updown import UP, legal_dag_to, legal_hops_to, orient_links
from repro.sim.arbiter import RoundRobinArbiter
from repro.sim.engine import Simulator
from repro.topology import build_irregular, check_topology
from repro.traffic import (ARRIVALS, PATTERNS, ArrivalProcess, Schedule,
                           TrafficPattern, TrafficProcess, make_workload)
from repro.traffic.arrivals import _geometric
from repro.traffic.base import HostStreams, _ArrivalReplay
from repro.traffic.bitreversal import reverse_bits

# keep generated networks small: every property walks all pairs
graphs = st.builds(
    build_irregular,
    num_switches=st.integers(min_value=2, max_value=12),
    hosts_per_switch=st.just(2),
    max_switch_links=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(graphs)
@SLOW
def test_generated_topologies_valid(g):
    check_topology(g)


@given(graphs, st.integers(min_value=0, max_value=11))
@SLOW
def test_spanning_tree_levels_are_bfs_distances(g, root_raw):
    root = root_raw % g.num_switches
    tree = build_spanning_tree(g, root)
    assert list(tree.level) == g.shortest_distances(root)


@given(graphs)
@SLOW
def test_updown_orientation_is_acyclic(g):
    """Following only 'up' traversals can never cycle: up-links form a
    DAG ordered by (level, id) -- this is the heart of the
    deadlock-freedom argument."""
    ud = orient_links(g, 0)
    lvl = ud.tree.level
    for link in g.links:
        up = ud.up_end[link.id]
        down = link.other(up)
        assert (lvl[up], up) < (lvl[down], down)


@given(graphs)
@SLOW
def test_legal_distances_bounded_by_double_tree_depth(g):
    """Any pair is reachable legally via the root (up to root, down to
    destination), so legal distance <= level(src) + level(dst)."""
    ud = orient_links(g, 0)
    lvl = ud.tree.level
    for src in g.switches():
        legal = legal_shortest_distances(g, ud, src)
        for dst in g.switches():
            assert legal[dst] <= lvl[src] + lvl[dst]


@given(graphs)
@SLOW
def test_every_minimal_path_splits_into_legal_segments(g):
    ud = orient_links(g, 0)
    for dst in g.switches():
        dist = g.shortest_distances(dst)
        for src in g.switches():
            if src == dst:
                continue
            for p in enumerate_minimal_paths(g, src, dst, dist, 3):
                segs = split_path_at_violations(g, ud, p)
                # segments chain and are each legal
                for seg in segs:
                    assert ud.path_is_legal(g, seg)
                flat = list(segs[0])
                for seg in segs[1:]:
                    assert seg[0] == flat[-1]
                    flat.extend(seg[1:])
                assert tuple(flat) == p


@given(graphs)
@SLOW
def test_itb_routes_minimal_and_boundary_hosts_correct(g):
    ud = orient_links(g, 0)
    routes = build_itb_routes(g, ud, max_routes_per_pair=3)
    for dst in g.switches():
        dist = g.shortest_distances(dst)
        for src in g.switches():
            for r in routes[(src, dst)]:
                assert route_hops(r) == max(dist[src], 0)
                legs = route_switches(g, src, r)
                for host, (a, b) in zip(r[1], zip(legs, legs[1:])):
                    assert g.host_switch(host) == a[-1] == b[0]


@given(graphs)
@SLOW
def test_simple_routes_all_legal_and_complete(g):
    ud = orient_links(g, 0)
    routes = compute_simple_routes(g, ud)
    n = g.num_switches
    assert len(routes) == n * n
    for (src, dst), path in routes.items():
        assert path[0] == src and path[-1] == dst
        assert ud.path_is_legal(g, path)


@given(graphs, st.integers(min_value=0, max_value=10_000))
@SLOW
def test_legal_path_enumeration_sound(g, seed):
    ud = orient_links(g, 0)
    rng = random.Random(seed)
    src = rng.randrange(g.num_switches)
    dst = rng.randrange(g.num_switches)
    legal = legal_shortest_distances(g, ud, src)
    paths = enumerate_legal_paths(g, ud, src, dst, legal[dst] + 1,
                                  max_paths=16)
    assert paths, "at least the shortest legal path must be found"
    for p in paths:
        assert ud.path_is_legal(g, p)
        assert len(set(p)) == len(p)
        assert len(p) - 1 <= legal[dst] + 1


@given(graphs)
@SLOW
def test_minimal_count_consistent_with_enumeration(g):
    dst = g.num_switches - 1
    dist = g.shortest_distances(dst)
    counts = count_minimal_paths(g, dst, dist)
    for src in g.switches():
        enum = enumerate_minimal_paths(g, src, dst, dist,
                                       max_paths=10_000)
        assert counts[src] == len(enum)


@given(graphs, st.integers(min_value=0, max_value=11))
@SLOW
def test_every_supporting_scheme_builds_deadlock_free_tables(g, root_raw):
    """The proof itself, on any connected fabric and from any root:
    structurally sound tables whose channel dependencies are acyclic."""
    for root in {0, root_raw % g.num_switches}:
        for scheme in SCHEMES.supported(g):
            compute_tables(g, scheme, root).validate(g)


@given(graphs, st.randoms(use_true_random=False))
@SLOW
def test_tables_built_on_first_lookup_equal_fully_built_ones(g, rnd):
    """Whatever order a run first looks pairs up in, each pair gets the
    alternatives a table built in one go holds, and the table lists its
    pairs in build order."""
    for scheme in SCHEMES.supported(g):
        full = dict(compute_tables(g, scheme).routes.items())
        lazy = compute_tables(g, scheme).routes
        pairs = list(full)
        rnd.shuffle(pairs)
        for pair in pairs:
            assert lazy[pair] == full[pair], (scheme, pair)
        assert list(lazy) == list(full)


# -- per-destination table kernels == per-pair reference enumerators ---------

graphs16 = st.builds(
    build_irregular,
    num_switches=st.integers(min_value=2, max_value=16),
    hosts_per_switch=st.just(1),
    max_switch_links=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
roots = st.integers(min_value=0, max_value=15)


def _links_join(g, path, lids):
    return (len(lids) == len(path) - 1
            and all({g.links[lid].a, g.links[lid].b} == {a, b}
                    for lid, a, b in zip(lids, path, path[1:])))


def _as_hops(path_links):
    """A reference enumerator's ``(path, link_ids)`` as directed hops."""
    path, lids = path_links
    return tuple(map(hop, lids, path, path[1:]))


@given(graphs16, roots, st.sampled_from([2, 32]))
@SLOW
def test_per_destination_legal_candidates_equal_per_pair_dfs(g, root_raw,
                                                             cap):
    """One backward BFS + one DAG per destination lists, for every
    source, exactly what the per-pair bounded DFS lists -- same paths,
    same order, same cap -- and carries the right directed hops."""
    ud = orient_links(g, root_raw % g.num_switches)
    forward = [legal_shortest_distances(g, ud, s) for s in g.switches()]
    for dst in g.switches():
        h, _succ = legal_dag_to(g, ud, dst)
        by_src = legal_hops_to(g, ud, dst, cap)
        assert sorted(by_src) == [s for s in g.switches() if s != dst]
        for src, cands in by_src.items():
            assert h[src][UP] == forward[src][dst]
            paths = [leg_switches(g, src, hops) for hops in cands]
            assert paths == enumerate_legal_paths(
                g, ud, src, dst, forward[src][dst], cap)
            assert cands == [path_hops(g, p) for p in paths]
            assert all(_links_join(g, p, tuple(h >> 1 for h in hops))
                       for p, hops in zip(paths, cands))


@given(graphs16, st.sampled_from([1, 3, 10]))
@SLOW
def test_per_destination_minimal_paths_equal_per_pair_dfs(g, cap):
    for dst in g.switches():
        dist = g.shortest_distances(dst)
        by_src = minimal_hops_to(g, dst, dist, cap)
        for src in g.switches():
            reference = enumerate_minimal_path_links(
                g, src, dst, dist, max_paths=cap)
            assert by_src[src] == [_as_hops(p) for p in reference]
            assert ([leg_switches(g, src, hops) for hops in by_src[src]]
                    == [p for p, _lids in reference])
            assert all(_links_join(g, p, lids) for p, lids in reference)


@given(graphs16, roots, st.sampled_from([1, 3, 32]))
@SLOW
def test_candidate_lists_ascend_by_switch_path(g, root_raw, cap):
    """Both per-destination kernels list a source's candidates in
    ascending switch-path order: the greedy passes rely on it, keeping
    the first of equal-weight candidates as the ``(weight, path)``
    minimum."""
    ud = orient_links(g, root_raw % g.num_switches)
    for dst in g.switches():
        for by_src in (legal_hops_to(g, ud, dst, cap),
                       minimal_hops_to(
                           g, dst, g.shortest_distances(dst), cap)):
            for src, cands in by_src.items():
                paths = [leg_switches(g, src, hops) for hops in cands]
                assert all(a <= b for a, b in zip(paths, paths[1:]))


def _cuts_after_a_down_hop(path, lids, up_end):
    """:func:`_cut_indices` of a path entered right after a down hop."""
    cuts, gone_down = [], True
    for i, lid in enumerate(lids):
        if up_end[lid] == path[i + 1]:
            if gone_down:
                cuts.append(i)
                gone_down = False
        else:
            gone_down = True
    return tuple(cuts)


@given(graphs16, roots, st.sampled_from([1, 3, 10]))
@SLOW
def test_carried_cuts_equal_a_rescan_of_every_path(g, root_raw, cap):
    """The minimal pass carries each path's cuts, counted from the
    destination, for a fresh entry and for one after a down hop; both
    equal what the greedy rescan of the finished path finds."""
    ud = orient_links(g, root_raw % g.num_switches)
    up_end = ud.up_end
    for dst in g.switches():
        dist = g.shortest_distances(dst)
        plain = minimal_hops_to(g, dst, dist, cap)
        carried = minimal_hops_to(g, dst, dist, cap, up_end)
        assert sorted(carried) == sorted(plain)
        for src, entries in carried.items():
            assert [hops for hops, _f, _d in entries] == plain[src]
            for hops, fresh, down in entries:
                path = leg_switches(g, src, hops)
                lids = tuple(h >> 1 for h in hops)
                n = len(lids)
                assert (tuple(n - r for r in fresh)
                        == _cut_indices(path, lids, up_end))
                assert (tuple(n - r for r in down)
                        == _cuts_after_a_down_hop(path, lids, up_end))


@given(graphs16, roots, st.sampled_from([1, 3, 10]), st.booleans())
@SLOW
def test_itb_records_equal_the_generic_assembly(g, root_raw, cap,
                                                sort_by_itbs):
    """:func:`build_itb_routes` (cuts carried by the minimal pass) holds
    exactly the records -- hops, cuts, in-transit hosts, pair and
    alternative order, balanced first alternatives -- that the
    assembler makes of plain minimal candidates cut by a rescan."""
    ud = orient_links(g, root_raw % g.num_switches)

    def rescanned():
        for dst in g.switches():
            by_src = minimal_hops_to(g, dst, g.shortest_distances(dst), cap)
            for src in g.switches():
                paths = by_src.get(src, [])
                cuts = []
                for hops in paths:
                    lids = tuple(h >> 1 for h in hops)
                    cuts.append(tuple(
                        len(lids) - i for i in _cut_indices(
                            leg_switches(g, src, hops), lids, ud.up_end)))
                yield (src, dst), paths, cuts

    built = build_itb_routes(g, ud, cap, sort_by_itbs)
    generic = assemble_itb_routes(g, rescanned(), sort_by_itbs)
    assert built._records == generic._records
    assert list(built._order) == list(generic._order)
    assert built.items() == generic.items()


@given(graphs16, st.sampled_from([1, 3, 10]))
@SLOW
def test_the_store_is_what_its_switch_level_views_say(g, cap):
    """Every scheme's table, read from the store alone: it passes
    ``validate`` (each hop leaves the switch its walk has reached, the
    in-transit hosts sit on the leg boundaries, the walk ends at the
    pair's destination, no dependency cycle), every route carries the
    header overheads its leg lengths give, and a table spelled from
    its own items normalises back to the same store, pairs in the same
    order."""
    for scheme in SCHEMES.supported(g):
        tables = compute_tables(g, scheme, 0, cap)
        tables.validate(g)
        for alts in tables.routes.values():
            for route in alts:
                assert route[0] == leg_overheads(tuple(map(len, route[2:])))
        again = RoutingTables(scheme, tables.root, tables.orientation,
                              dict(tables.routes.items()))
        assert list(again.routes.items()) == list(tables.routes.items())


@given(st.integers(min_value=0, max_value=511),
       st.integers(min_value=1, max_value=9))
def test_reverse_bits_involution(value, width):
    v = value % (1 << width)
    assert reverse_bits(reverse_bits(v, width), width) == v


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=99)),
                min_size=1, max_size=40))
def test_arbiter_grants_every_request_exactly_once(reqs):
    """Any request sequence drains completely, each token granted once."""
    arb = RoundRobinArbiter()
    granted = []
    for i, (key, _) in enumerate(reqs):
        arb.request(key, i, lambda i=i: granted.append(i))
    while arb.busy:
        arb.release(arb.owner)
    assert sorted(granted) == list(range(len(reqs)))
    assert arb.waiting() == 0


@given(st.data())
def test_arbiter_no_starvation(data):
    """Under continuous backlog on other keys, a queued request is
    granted within (number of keys) releases of its arrival."""
    arb = RoundRobinArbiter()
    keys = data.draw(st.lists(st.sampled_from("abcd"), min_size=4,
                              max_size=20))
    granted = []
    token = 0
    for k in keys:
        arb.request(k, token, lambda t=token: granted.append(t))
        token += 1
    # victim request on its own key
    arb.request("victim", "V", lambda: granted.append("V"))
    releases = 0
    while arb.busy and "V" not in granted:
        arb.release(arb.owner)
        releases += 1
        assert releases <= 5  # 4 data keys + victim


# -- schedules: bulk pregeneration == scalar loop == event-driven path -------

#: 4 and 16 hosts are powers of two and of four: every pattern is defined
workload_graphs = st.builds(
    build_irregular,
    num_switches=st.sampled_from([2, 8]),
    hosts_per_switch=st.just(2),
    max_switch_links=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
any_graphs = st.builds(
    build_irregular,
    num_switches=st.integers(min_value=2, max_value=12),
    hosts_per_switch=st.just(2),
    max_switch_links=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
intervals = st.integers(min_value=20_000, max_value=400_000)
horizons = st.integers(min_value=0, max_value=3_000_000)
seeds = st.integers(min_value=0, max_value=10_000)

FAST = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class _QuirkyPattern(TrafficPattern):
    """Silent draws (``None``) and self-destinations, at random."""

    name = "quirky"

    def destination(self, src_host, rng):
        d = rng.randrange(self.graph.num_hosts + 1)
        return None if d == self.graph.num_hosts else d


class _VolleyArrivals(ArrivalProcess):
    """The (r, b)-adversary with zero intra-volley spacing: each host
    fires ``burst`` messages at the *same instant*, so ``(t, src)`` ties
    and the schedule order must fall back on ``dst``."""

    name = "volley"

    def __init__(self, interval_ps, burst=4):
        self.interval_ps = interval_ps
        self.burst = burst
        self._left = {}

    def next_fire_ps(self, host, now_ps, rng):
        left = self._left.get(host)
        if left is None:
            self._left[host] = self.burst - 1
            return now_ps
        if left > 0:
            self._left[host] = left - 1
            return now_ps
        self._left[host] = self.burst - 1
        return now_ps + self.burst * self.interval_ps


def _scalar_triples(pattern, arrivals, seed, t_end):
    """The reference: one ``destination`` and one ``next_fire_ps`` call
    per message, interleaved -- the loop the bulk hooks replaced."""
    out = []
    for host in pattern.active_hosts():
        dest_rng = random.Random(f"{seed}:{host}")
        arr_rng = random.Random(f"{seed}:arrival:{host}")
        cur = max(arrivals.next_fire_ps(host, 0, arr_rng), 0)
        while cur <= t_end:
            dst = pattern.destination(host, dest_rng)
            if dst is not None and dst != host:
                out.append((cur, host, dst))
            cur = max(arrivals.next_fire_ps(host, cur, arr_rng), cur)
    return sorted(out)


class _RecordingNetwork:
    """The one method ``TrafficProcess`` calls on a network."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send(self, src, dst):
        self.sent.append((self.sim.now, src, dst))


def _check_three_ways(build, seed, t_end):
    """``build()`` -> a fresh (pattern, arrivals) pair each time (both
    sides keep per-host state).  The ``Schedule`` must equal the scalar
    loop's sorted triples and the message set ``start()`` sends."""
    schedule = TrafficProcess(Simulator(), None, *build(),
                              seed=seed).pregenerate(t_end)
    assert isinstance(schedule, Schedule)
    assert (schedule.t.typecode, schedule.src.typecode,
            schedule.dst.typecode) == ("q", "i", "i")
    triples = list(schedule)
    assert len(schedule) == len(triples)
    assert triples == _scalar_triples(*build(), seed, t_end)
    sim = Simulator()
    net = _RecordingNetwork(sim)
    traffic = TrafficProcess(sim, net, *build(), seed=seed)
    traffic.start()
    sim.run_until(t_end)
    assert triples == sorted(net.sent)
    assert traffic.generated == len(triples)
    return triples


@pytest.mark.parametrize("arrival", ARRIVALS.names())
@pytest.mark.parametrize("traffic", PATTERNS.names())
@given(workload_graphs, intervals, horizons, seeds)
@FAST
def test_schedule_equals_scalar_loop_and_event_path(traffic, arrival, g,
                                                    interval, t_end, seed):
    def build():
        return make_workload(g, traffic, {}, arrival, {}, interval)
    _check_three_ways(build, seed, t_end)


@pytest.mark.parametrize("arrival", ARRIVALS.names() + ("volley",))
@given(any_graphs, intervals, horizons, seeds)
@FAST
def test_schedule_skips_silent_and_self_addressed_draws(arrival, g, interval,
                                                        t_end, seed):
    """``destination`` -> ``None`` and ``dst == src`` draws consume the
    stream but send nothing; with the volley process one host fires
    several messages at one instant and the tie breaks on ``dst``."""
    def build():
        arrivals = (_VolleyArrivals(interval) if arrival == "volley"
                    else ARRIVALS.get(arrival).build(interval))
        return _QuirkyPattern(g), arrivals
    triples = _check_three_ways(build, seed, t_end)
    assert all(s != d for _, s, d in triples)
    assert triples == sorted(triples)


# -- the destination-stream memo: a prefix of each stream, never a redraw ----

#: (interval, horizon) pairs a key's schedules are drawn at
windows = st.lists(st.tuples(intervals, horizons), min_size=2, max_size=4)


def _in_order(pairs, order):
    """``ascending``: each schedule holds at least as many firings as the
    last (shorter intervals, longer horizons); ``descending``: the
    reverse; ``repeated``: every pair twice, the second round reversed."""
    more = sorted(pairs, key=lambda p: p[1] / p[0])
    if order == "ascending":
        return more
    if order == "descending":
        return more[::-1]
    return pairs + pairs[::-1]


def _columns(schedule):
    return (schedule.t, schedule.src, schedule.dst, schedule.horizon_ps,
            schedule.silent)


def _check_memo_against_fresh(build, seed, pairs):
    """Schedules drawn through one memo equal fresh draws, column for
    column; ``build(interval)`` -> a fresh (pattern, arrivals) pair."""
    streams = HostStreams()
    for interval, t_end in pairs:
        memo = TrafficProcess(Simulator(), None, *build(interval),
                              seed=seed).pregenerate(t_end, streams)
        fresh = TrafficProcess(Simulator(), None, *build(interval),
                               seed=seed).pregenerate(t_end)
        assert _columns(memo) == _columns(fresh)
    return streams


@pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
@pytest.mark.parametrize("arrival", ARRIVALS.names())
@pytest.mark.parametrize("traffic", PATTERNS.names())
@given(workload_graphs, windows, seeds)
@FAST
def test_memoised_destinations_equal_fresh_draws(traffic, arrival, order, g,
                                                 pairs, seed):
    def build(interval):
        return make_workload(g, traffic, {}, arrival, {}, interval)
    _check_memo_against_fresh(build, seed, _in_order(pairs, order))


@pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
@given(any_graphs, windows, seeds)
@FAST
def test_memoised_silent_draws_equal_fresh_draws(order, g, pairs, seed):
    """``None`` and self-addressed draws are kept in the memo and count
    as ``silent`` exactly as a fresh draw counts them."""
    def build(interval):
        return _QuirkyPattern(g), ARRIVALS.get("poisson").build(interval)
    _check_memo_against_fresh(build, seed, _in_order(pairs, order))


# -- the arrival replay: stored outputs, read as the seeded generator ---------

#: one draw an arrival process may make, as (method, argument)
draws = st.one_of(
    st.tuples(st.just("randrange"), st.integers(1, 2 ** 70)),
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("expovariate"),
              st.floats(1e-6, 1e3, allow_nan=False)),
    st.tuples(st.just("getrandbits"), st.integers(0, 99)),
    st.tuples(st.just("geometric"), st.integers(0, 50)),
)


def _apply(rng, script):
    out = []
    for method, arg in script:
        if method == "random":
            out.append(rng.random())
        elif method == "geometric":
            out.append(_geometric(arg, rng))
        else:
            out.append(getattr(rng, method)(arg))
    return out


@given(seeds, st.integers(0, 63), st.lists(draws, max_size=60),
       st.integers(0, 300))
@SLOW
def test_the_arrival_replay_is_the_seeded_generator(seed, host, script,
                                                    held):
    """Fed the first ``held`` outputs of ``Random(key)`` -- none, fewer
    than the draws need, or more -- the replay makes every draw the
    seeded generator makes (``randrange`` past 2**32 takes several
    words per ``getrandbits``), and what it stores is still a prefix of
    that generator's outputs."""
    key = f"{seed}:arrival:{host}"
    source = random.Random(key)
    outputs = {host: array("I", [source.getrandbits(32)
                                 for _ in range(held)])}
    replay = _ArrivalReplay(outputs, seed).at(host)
    assert isinstance(replay, _ArrivalReplay)
    assert _apply(replay, script) == _apply(random.Random(key), script)
    source = random.Random(key)
    assert list(outputs[host]) == [source.getrandbits(32)
                                   for _ in outputs[host]]


def test_a_first_schedule_draws_from_the_seeded_generator():
    """A host the memo has not seen gets its generator itself, as a
    fresh draw does, and an empty record: the next schedule records."""
    outputs = {}
    rng = _ArrivalReplay(outputs, 5).at(3)
    assert type(rng) is random.Random
    assert rng.getstate() == random.Random("5:arrival:3").getstate()
    assert outputs == {3: array("I")}


def test_the_arrival_replay_refuses_negative_bits():
    with pytest.raises(ValueError):
        _ArrivalReplay({}, 1).at(0).getrandbits(-1)


def _draw(streams, g, interval, t_end, seed=3, arrival="constant"):
    pattern, arrivals = make_workload(g, "uniform", {}, arrival, {},
                                      interval)
    return TrafficProcess(Simulator(), None, pattern, arrivals,
                          seed=seed).pregenerate(t_end, streams)


def _catching(errors, target):
    """``target``, appending what it raises to ``errors`` (an exception
    in a thread would otherwise only reach pytest as a warning)."""
    def run(*args):
        try:
            target(*args)
        except Exception as exc:
            errors.append(exc)
    return run


class TestDestinationStreamGrowth:
    """What the memo holds: each host's drawn destinations, replaced --
    never extended -- when a schedule needs more."""

    g = build_irregular(num_switches=8, hosts_per_switch=2,
                        max_switch_links=3, seed=1)

    def test_a_shorter_schedule_draws_nothing(self):
        streams = HostStreams()
        _draw(streams, self.g, 20_000, 1_000_000)
        held = dict(streams.drawn)
        _draw(streams, self.g, 50_000, 1_000_000)
        assert streams.drawn == held
        assert all(streams.drawn[h] is d for h, d in held.items())

    def test_a_first_draw_is_as_deep_as_its_schedule(self):
        streams = HostStreams()
        schedule = _draw(streams, self.g, 100_000, 1_000_000)
        assert {h: len(d) for h, d in streams.drawn.items()} == {
            h: list(schedule.src).count(h) for h in streams.drawn}

    def test_a_longer_schedule_redraws_at_least_twice_as_deep(self):
        streams = HostStreams()
        _draw(streams, self.g, 100_000, 1_000_000)
        held = dict(streams.drawn)
        _draw(streams, self.g, 10_000, 1_000_000)
        grown = 0
        for host, drawn in streams.drawn.items():
            old = held.get(host, [])
            if drawn is not old:
                grown += 1
                assert len(drawn) >= max(2 * len(old), 8)
                assert drawn[:len(old)] == old
        assert grown

    def test_a_host_without_firings_is_not_seeded(self):
        # a horizon of half the interval: only the hosts whose random
        # phase lands in it fire, once each
        streams = HostStreams()
        schedule = _draw(streams, self.g, 400_000, 200_000)
        assert set(streams.drawn) == set(schedule.src)
        assert 0 < len(streams.drawn) < self.g.num_hosts

    def test_threads_sharing_the_streams_draw_the_seeded_streams(self):
        # the GIL switches threads mid-draw at a tiny switch interval;
        # every schedule must still be its fresh draw
        intervals = [10_000 + 7_000 * i for i in range(12)]
        fresh = {i: _columns(_draw(None, self.g, i, 2_000_000))
                 for i in intervals}
        streams = HostStreams()
        wrong, errors = [], []

        def work(order):
            for interval in order:
                if _columns(_draw(streams, self.g, interval,
                                  2_000_000)) != fresh[interval]:
                    wrong.append(interval)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=_catching(errors, work),
                                        args=(order,))
                       for order in (intervals, intervals[::-1],
                                     intervals[::2] + intervals[1::2])]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and not wrong


class TestArrivalStreams:
    """What the memo holds of each host's arrival generator: its
    outputs, replayed by every schedule of the key, so a sweep seeds
    the generator only where a schedule needs more than is held."""

    g = build_irregular(num_switches=8, hosts_per_switch=2,
                        max_switch_links=3, seed=1)

    @staticmethod
    def _count_seedings(monkeypatch):
        """host -> how often its arrival generator is seeded."""
        from repro.traffic import base
        seeded = {}

        def counting(key):
            if ":arrival:" in key:
                host = int(key.rsplit(":", 1)[1])
                seeded[host] = seeded.get(host, 0) + 1
            return random.Random(key)
        monkeypatch.setattr(base, "random", SimpleNamespace(Random=counting))
        return seeded

    def test_a_sweep_seeds_each_arrival_generator_at_most_twice(
            self, monkeypatch):
        # the campaign's twelve rates on a 4x4 torus, paper windows
        from repro import runner
        from repro.experiments.profiles import PAPER
        from repro.traffic.base import per_host_interval_ps
        g = runner.get_graph("torus", {"rows": 4, "cols": 4})
        t_end = PAPER.warmup_ps + PAPER.measure_ps
        intervals = [per_host_interval_ps(0.004 + 0.003 * i, 512, g)
                     for i in range(12)]
        seeded = self._count_seedings(monkeypatch)
        for interval in intervals:
            _draw(None, g, interval, t_end, seed=1)
        assert seeded == {h: 12 for h in range(g.num_hosts)}
        seeded.clear()
        streams = HostStreams()
        for interval in intervals:
            _draw(streams, g, interval, t_end, seed=1)
        assert set(seeded) == set(range(g.num_hosts))
        assert max(seeded.values()) <= 2

    def test_a_process_that_draws_nothing_seeds_only_its_first_schedule(
            self, monkeypatch):
        seeded = self._count_seedings(monkeypatch)
        streams = HostStreams()
        for interval in (20_000, 50_000, 80_000):
            schedule = _draw(streams, self.g, interval, 2_000_000,
                             arrival="adversarial")
            assert len(schedule)
        assert seeded == {h: 1 for h in range(self.g.num_hosts)}
        assert all(len(w) == 0 for w in streams.outputs.values())

    def test_a_longer_schedule_replaces_the_outputs_held(self):
        streams = HostStreams()
        # the first schedule records nothing, the second what it reads
        _draw(streams, self.g, 100_000, 1_000_000, arrival="poisson")
        assert all(len(w) == 0 for w in streams.outputs.values())
        _draw(streams, self.g, 100_000, 1_000_000, arrival="poisson")
        held = dict(streams.outputs)
        assert all(len(w) >= 8 for w in held.values())
        assert all(isinstance(w, array) and w.typecode == "I"
                   for w in held.values())
        _draw(streams, self.g, 10_000, 1_000_000, arrival="poisson")
        grown = 0
        for host, words in streams.outputs.items():
            old = held.get(host, ())
            if words is not old:
                grown += 1
                assert len(words) >= max(2 * len(old), 8)
                assert words[:len(old)] == old
        assert grown
        # a shorter one reads what is held and stores nothing
        held = dict(streams.outputs)
        _draw(streams, self.g, 50_000, 1_000_000, arrival="poisson")
        assert all(streams.outputs[h] is w for h, w in held.items())

    def test_same_key_sweeps_on_threads_draw_the_seeded_streams(self):
        # poisson arrivals grow the stored outputs within a schedule;
        # two sweeps of one key at once must still draw each schedule
        # as a fresh draw does
        intervals = [10_000 + 9_000 * i for i in range(8)]
        fresh = {i: _columns(_draw(None, self.g, i, 2_000_000,
                                   arrival="poisson")) for i in intervals}
        streams = HostStreams()
        wrong, errors = [], []

        def work(order):
            for interval in order:
                if _columns(_draw(streams, self.g, interval, 2_000_000,
                                  arrival="poisson")) != fresh[interval]:
                    wrong.append(interval)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=_catching(errors, work),
                                        args=(order,))
                       for order in (intervals, intervals[::-1])]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []


class TestDestinationStreamMemo:
    """The runner's per-process memo: keyed by topology, pattern and
    seed, one key held, emptied by ``clear_caches``."""

    @staticmethod
    def _config(seed, rate=0.01):
        from repro.config import SimConfig
        return SimConfig(topology="torus",
                         topology_kwargs={"rows": 3, "cols": 3,
                                          "hosts_per_switch": 2},
                         engine="array", injection_rate=rate, seed=seed,
                         warmup_ps=20_000_000, measure_ps=300_000_000)

    def test_rates_share_one_key_and_a_new_key_replaces_it(self):
        from repro import runner
        runner.clear_caches()
        try:
            runner.run_simulation(self._config(1, 0.01))
            key, streams = runner._STREAMS
            assert key[-1] == 1 and streams.drawn
            runner.run_simulation(self._config(1, 0.05))
            assert runner._STREAMS[1] is streams
            runner.run_simulation(self._config(2))
            key, other = runner._STREAMS
            assert key[-1] == 2 and other is not streams
        finally:
            runner.clear_caches()

    def test_same_key_runs_on_threads_offer_the_seeded_schedules(self):
        # two campaigns of one key at once, as two handler threads of
        # ``repro serve`` run them: each schedule the memo builds is
        # the schedule a fresh draw gives
        from repro import runner
        rates = [0.01 + 0.01 * i for i in range(6)]
        errors = []
        runner.clear_caches()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=_catching(errors, lambda order: [
                    runner.run_simulation(self._config(1, rate))
                    for rate in order]),
                args=(order,)) for order in (rates, rates[::-1])]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        # a thread that raised lost its runs (a memo mutated while
        # another thread iterated it, say)
        assert errors == []
        memoised = dict(runner._SCHEDULE_CACHE)
        runner.clear_caches()
        try:
            assert len(memoised) == len(rates)
            # a fresh memo per rate: each schedule is a first draw
            for rate in rates:
                runner._STREAMS = ((), HostStreams())
                runner.run_simulation(self._config(1, rate))
            for key, schedule in memoised.items():
                assert _columns(runner._SCHEDULE_CACHE[key]) == _columns(
                    schedule)
        finally:
            runner.clear_caches()

    def test_clear_caches_empties_the_memo(self):
        from repro import runner
        runner.run_simulation(self._config(1))
        assert runner._STREAMS[1].drawn
        runner.clear_caches()
        assert runner._STREAMS[0] == () and not runner._STREAMS[1].drawn
