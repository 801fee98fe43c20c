"""In-transit buffer route construction (path splitting and host choice)."""

import pytest

from repro.routing.itb import build_itb_routes, split_path_at_violations
from repro.routing.reference import enumerate_minimal_paths
from repro.routing.routes import (SourceRoute, hop_ints, leg_overheads,
                                  route_links)
from repro.routing.updown import orient_links
from repro.topology import build_torus


@pytest.fixture(scope="module")
def g88():
    return build_torus(rows=8, cols=8, hosts_per_switch=2)


@pytest.fixture(scope="module")
def ud88(g88):
    return orient_links(g88, root=0)


class TestSplit:
    def test_legal_path_single_segment(self, g88, ud88):
        # spanning-tree walk root-ward then leaf-ward is always legal
        path = [18, 10, 2, 1, 0]
        assert ud88.path_is_legal(g88, path)
        assert split_path_at_violations(g88, ud88, path) == [tuple(path)]

    def test_segments_reassemble_to_path(self, g88, ud88):
        for dst in (0, 9, 63):
            dist = g88.shortest_distances(dst)
            for src in range(0, 64, 7):
                for p in enumerate_minimal_paths(g88, src, dst, dist, 5):
                    segs = split_path_at_violations(g88, ud88, p)
                    flat = list(segs[0])
                    for seg in segs[1:]:
                        assert seg[0] == flat[-1]
                        flat.extend(seg[1:])
                    assert tuple(flat) == p

    def test_every_segment_legal(self, g88, ud88):
        checked = 0
        for dst in (0, 27, 63):
            dist = g88.shortest_distances(dst)
            for src in range(64):
                for p in enumerate_minimal_paths(g88, src, dst, dist, 3):
                    for seg in split_path_at_violations(g88, ud88, p):
                        assert ud88.path_is_legal(g88, seg)
                        checked += 1
        assert checked > 100

    def test_illegal_path_gets_split(self, g88, ud88):
        """Find a minimal path that violates up*/down* and check the
        split produces >= 2 segments."""
        found = False
        for dst in g88.switches():
            dist = g88.shortest_distances(dst)
            for src in g88.switches():
                for p in enumerate_minimal_paths(g88, src, dst, dist, 3):
                    if not ud88.path_is_legal(g88, p):
                        segs = split_path_at_violations(g88, ud88, p)
                        assert len(segs) >= 2
                        found = True
            if found:
                break
        assert found

    def test_split_is_minimal_cut_count(self, g88, ud88):
        """Greedy split = fewest segments: no single-segment split can
        cover an illegal path, and removing any one cut from the greedy
        answer leaves an illegal segment."""
        for dst in (0, 45):
            dist = g88.shortest_distances(dst)
            for src in range(0, 64, 5):
                for p in enumerate_minimal_paths(g88, src, dst, dist, 2):
                    segs = split_path_at_violations(g88, ud88, p)
                    if len(segs) < 2:
                        continue
                    # merging any adjacent pair must be illegal
                    for i in range(len(segs) - 1):
                        merged = segs[i] + segs[i + 1][1:]
                        assert not ud88.path_is_legal(g88, merged)

    def test_unlinked_path_raises(self, g88, ud88):
        with pytest.raises(ValueError):
            split_path_at_violations(g88, ud88, [0, 9])


def views(g, store):
    """A table's routes as switch-level :class:`SourceRoute` views."""
    return {pair: tuple(SourceRoute.from_store(g, pair[0], r) for r in alts)
            for pair, alts in store.items()}


class TestBuildItbRoutes:
    @pytest.fixture(scope="class")
    def routes(self, g88, ud88):
        return views(g88, build_itb_routes(g88, ud88, max_routes_per_pair=4))

    def test_every_pair_covered(self, g88, routes):
        n = g88.num_switches
        assert len(routes) == n * n

    def test_routes_minimal(self, g88, routes):
        for dst in (0, 20, 63):
            dist = g88.shortest_distances(dst)
            for src in g88.switches():
                for r in routes[(src, dst)]:
                    assert r.switch_hops == dist[src]

    def test_cap_respected(self, routes):
        assert all(1 <= len(alts) <= 4 for alts in routes.values())

    def test_itb_hosts_on_boundary_switches(self, g88, routes):
        for (src, dst), alts in routes.items():
            for r in alts:
                for host, (a, b) in zip(r.itb_hosts,
                                        zip(r.legs, r.legs[1:])):
                    assert g88.host_switch(host) == a.end == b.start

    def test_legs_individually_legal(self, g88, ud88, routes):
        """The deadlock-freedom requirement of Section 3."""
        for alts in routes.values():
            for r in alts:
                for leg in r.legs:
                    assert ud88.path_is_legal(g88, leg.switches)

    def test_some_routes_need_itbs(self, routes):
        assert any(r.num_itbs > 0
                   for alts in routes.values() for r in alts)

    def test_itb_duty_spread_over_hosts(self, g88, routes):
        """The shared host cycler should not put every in-transit stop
        on host 0 of each switch."""
        used = {h for alts in routes.values() for r in alts
                for h in r.itb_hosts}
        switches_used = {g88.host_switch(h) for h in used}
        # at least one switch has more than one of its hosts on ITB duty
        assert any(len([h for h in used if g88.host_switch(h) == s]) > 1
                   for s in switches_used)

    def test_sort_by_itbs_orders_front(self, g88, ud88):
        routes = build_itb_routes(g88, ud88, max_routes_per_pair=6,
                                  sort_by_itbs=True, balance_sp=False)
        for alts in routes.values():
            itbs = [len(r[1]) for r in alts]
            assert itbs == sorted(itbs)


class TestBalanceFirstAlternatives:
    """The balancing pass seen from its one switch, ``balance_sp``: it
    only reorders a pair's alternatives, and the first ones it picks
    load the links more evenly than enumeration order does."""

    @pytest.fixture(scope="class")
    def raw_and_balanced(self, g88, ud88):
        return (build_itb_routes(g88, ud88, max_routes_per_pair=4,
                                 balance_sp=False),
                build_itb_routes(g88, ud88, max_routes_per_pair=4))

    def test_same_route_sets(self, raw_and_balanced):
        raw, bal = raw_and_balanced
        assert list(raw) == list(bal)
        for pair in raw:
            assert set(raw[pair]) == set(bal[pair])

    def test_balancing_reduces_max_link_load(self, g88, raw_and_balanced):
        """First-alternative link load must be flatter after balancing."""
        raw, bal = raw_and_balanced

        def max_load(routes):
            load = [0] * g88.num_links
            for (s, d), alts in routes.items():
                if s == d:
                    continue
                for lid in route_links(alts[0]):
                    load[lid] += 1
            return max(load)

        assert max_load(bal) < max_load(raw)


class TestSpSelectionNeedsBalancing:
    """Which alternative SP pins, the one place ``sort_by_itbs``
    matters: on ``balance_sp=False`` tables, which only
    ``build_itb_routes`` exposes, so the fills run here on live
    ``tables=`` objects (paper torus, ITB-SP at 0.028, bench windows).
    On the default table the balancing pass runs after the sort and
    already breaks its ties by in-transit count, so the sort changes
    nothing SP sees.  Over seeds 1-8 the balanced fill
    accepts 0.0278-0.0281 unsaturated; enumeration order accepts
    0.0168-0.0199 and fewest-ITBs-first 0.0150-0.0183, both saturated
    on all eight; ITBs/message 0.47-0.52 / 0.20-0.29 / 0.07-0.12."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.config import SimConfig
        from repro.experiments.profiles import BENCH
        from repro.runner import run_simulation
        from repro.routing.table import RoutingTables
        g = build_torus()
        ud = orient_links(g, root=0)
        cfg = SimConfig(topology="torus", routing="itb", policy="sp",
                        traffic="uniform", injection_rate=0.028,
                        warmup_ps=BENCH.warmup_ps,
                        measure_ps=BENCH.measure_ps)
        fills = {"enumeration": dict(balance_sp=False),
                 "fewest-itbs": dict(sort_by_itbs=True, balance_sp=False),
                 "balanced": dict()}
        return {name: run_simulation(cfg, tables=RoutingTables(
                    "itb", 0, ud, build_itb_routes(g, ud, **kw)))
                for name, kw in fills.items()}

    def test_unbalanced_fills_collapse_below_the_paper_knee(self, runs):
        balanced = runs["balanced"]
        assert not balanced.saturated
        for name in ("enumeration", "fewest-itbs"):
            assert runs[name].saturated, name
            assert balanced.accepted_flits_ns_switch >= \
                1.3 * runs[name].accepted_flits_ns_switch, name

    def test_fewest_itbs_first_does_use_fewer(self, runs):
        itbs = {name: s.avg_itbs_per_message for name, s in runs.items()}
        assert itbs["fewest-itbs"] < 0.5 * itbs["enumeration"] \
            < 0.5 * itbs["balanced"]


class TestLazyTables:
    """ITB-style tables build a pair's routes on its first lookup:
    nothing a reader can ask of the table shows it, and a sub-knee run
    builds a fraction of them."""

    @staticmethod
    def _fresh(g, scheme):
        from repro.routing import compute_tables
        return compute_tables(g, scheme)

    @staticmethod
    def _built(routes):
        """Pairs whose routes exist (the store's built slots)."""
        return sum(alts is not None for alts in routes.alts)

    @pytest.mark.parametrize("scheme", ["itb", "outflank"])
    def test_a_fresh_table_has_built_nothing(self, g88, scheme):
        assert self._built(self._fresh(g88, scheme).routes) == 0

    @pytest.mark.parametrize("scheme,order", [("itb", "dst-major"),
                                              ("outflank", "src-major")])
    def test_reads_equal_a_fully_built_reference(self, g88, scheme, order):
        lazy = self._fresh(g88, scheme).routes
        full = dict(self._fresh(g88, scheme).routes.items())
        n = g88.num_switches
        assert len(full) == n * n
        assert self._built(lazy) == 0
        assert len(lazy) == n * n
        assert all(pair in lazy for pair in full)
        assert (0, n) not in lazy
        assert list(lazy) == list(lazy.keys()) == list(full)
        by_dst = [(s, d) for d in range(n) for s in range(n)]
        assert list(full) == (by_dst if order == "dst-major"
                              else sorted(by_dst))
        assert self._built(lazy) == 0          # none of that built a route
        assert lazy[(5, 9)] == full[(5, 9)]    # one lookup builds one pair
        assert self._built(lazy) == 1
        assert lazy.items() == list(full.items())
        assert lazy == full and not lazy != full
        assert dict(lazy) == full

    def test_lookups_build_once_and_unknown_pairs_raise(self, g88):
        routes = self._fresh(g88, "itb").routes
        first = routes[(3, 40)]
        assert routes[(3, 40)] is first and routes.get((3, 40)) is first
        with pytest.raises(KeyError):
            routes[(0, g88.num_switches)]
        assert routes.get((0, g88.num_switches)) is None
        assert self._built(self._fresh(g88, "itb").routes) == 0

    def test_remapping_and_statistics_see_every_pair(self, g88):
        from repro.routing import route_statistics
        full = self._fresh(g88, "itb")
        full.routes.values()
        identity = {lid: lid for lid in range(g88.num_links)}
        remapped = self._fresh(g88, "itb").with_remapped_links(identity)
        assert len(remapped.routes) == g88.num_switches ** 2
        assert remapped.routes == full.routes
        assert (route_statistics(g88, self._fresh(g88, "itb"))
                == route_statistics(g88, full))

    @pytest.mark.parametrize("fabric,scheme", [
        ("g88", "itb"), ("g88", "outflank"),
        ("cplant", "itb")])                   # outflank needs a grid
    def test_a_table_holds_each_distinct_leg_once(self, request, fabric,
                                                   scheme):
        """Pairs reuse each other's legs; a fully looked-up table holds
        one leg tuple per distinct hop sequence, made of the shared hop
        ints, one overheads tuple per distinct value, and a remapped
        copy keeps the sharing."""
        g = request.getfixturevalue(fabric)
        tables = self._fresh(g, scheme)
        routes = [r for alts in tables.routes.values() for r in alts]
        legs = {id(leg): leg for r in routes for leg in r[2:]}
        assert len(legs) == len(set(legs.values()))
        assert len(legs) < sum(len(r[2:]) for r in routes)
        ints = hop_ints(g.num_links)
        assert all(h is ints[h] for leg in legs.values() for h in leg)
        overheads = {}
        cut = [r for r in routes if r[1]]
        assert cut
        for r in routes:
            assert overheads.setdefault(r[0], r[0]) is r[0]
            assert r[0] is leg_overheads(tuple(map(len, r[2:])))
        identity = {lid: lid for lid in range(g.num_links)}
        remapped = tables.with_remapped_links(identity)
        assert len({id(leg) for alts in remapped.routes.values()
                    for r in alts for leg in r[2:]}) == len(legs)

    def test_a_sub_knee_point_builds_a_quarter_of_the_pairs_or_less(self):
        """The benchmark's cold torus point: what it sends on is what
        gets built, and its summary is the one fully built tables give."""
        from dataclasses import replace

        from repro.config import SimConfig
        from repro.experiments.profiles import PAPER
        from repro.runner import run_simulation
        g = build_torus()
        cfg = SimConfig(topology="torus", routing="itb", policy="rr",
                        injection_rate=0.010, engine="array", seed=1,
                        warmup_ps=PAPER.warmup_ps,
                        measure_ps=PAPER.measure_ps)
        lazy = self._fresh(g, "itb")
        summary = run_simulation(cfg, tables=lazy)
        assert 0 < self._built(lazy.routes) <= 0.25 * g.num_switches ** 2
        full = self._fresh(g, "itb")
        full = replace(full, routes=dict(full.routes.items()))
        assert run_simulation(cfg, tables=full) == summary
