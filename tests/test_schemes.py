"""Property suite for the routing-scheme registry.

Every registered scheme, on every topology it declares support for,
must produce tables that pass the structural checks of
:meth:`RoutingTables.validate` and its deadlock-freedom proof (an
acyclic channel-dependency graph), deterministically; what a scheme
*is* (up*/down*-legal legs, X-then-Y turns) is asserted on what its
builder emits; schemes
must refuse unsupported graphs with a helpful error; and the registry
must behave like the engine registry (unknown-name errors that list
the alternatives, duplicate rejection, clean unregistration picked up
by ``SimConfig.validate``).
"""

from __future__ import annotations

from collections import Counter
import gc
import os
from pathlib import Path
import random
import subprocess
import sys
import textwrap
import weakref

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.routing.routes import RouteLeg, SourceRoute, route_hops
from repro.routing.schemes import (SCHEMES, Scheme, build_updown_tables,
                                   scheme_label)
from repro.routing.angara import select_root
from repro.routing.dor import dor_path
from repro.routing.reference import enumerate_minimal_paths
from repro.routing.policies import make_policy
from repro.routing.spanning_tree import build_spanning_tree
from repro.routing import (RoutingTables, build_itb_routes,
                           compute_tables)
from repro.routing.updown import orient_links
from repro.sim import Simulator, make_network
from repro.topology import build_mesh
from tests.conftest import small_config
from tests.test_table_digests import table_digest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the schemes this PR ships (the paper's two plus three rivals)
EXPECTED = {"updown", "itb", "updown-opt", "outflank", "dor"}

GRAPH_FIXTURES = ("torus44", "express44", "irregular16", "mesh44")


@pytest.fixture(scope="session")
def mesh44():
    return build_mesh(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(params=GRAPH_FIXTURES)
def any_graph(request):
    return request.getfixturevalue(request.param)


class TestRegistry:
    def test_shipped_schemes_registered(self):
        assert EXPECTED <= set(SCHEMES.names())

    def test_unknown_scheme_lists_available(self):
        with pytest.raises(ValueError, match="unknown routing scheme"):
            SCHEMES.get("teleport")
        with pytest.raises(ValueError, match="updown"):
            SCHEMES.get("teleport")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            SCHEMES.register(SCHEMES.get("updown"))

    def test_registration_roundtrip_reaches_config_validation(self):
        SCHEMES.register(Scheme(
            name="null-route", description="test-only",
            label=lambda p: "NULL", build=build_updown_tables,
            multipath=False))
        try:
            assert "null-route" in SCHEMES.names()
            # config validation and labels pick it up with no changes
            small_config(routing="null-route").validate()
            assert small_config(routing="null-route").label() == "NULL"
        finally:
            SCHEMES.unregister("null-route")
        assert "null-route" not in SCHEMES.names()
        with pytest.raises(ValueError, match="unknown routing scheme"):
            small_config(routing="null-route").validate()
        assert "updown" in SCHEMES.names()  # built-ins untouched

    def test_labels(self):
        assert scheme_label("updown", "sp") == "UP/DOWN"
        assert scheme_label("itb", "rr") == "ITB-RR"
        assert scheme_label("updown-opt", "sp") == "UD-OPT"
        assert scheme_label("outflank", "rr") == "OFR-RR"
        assert scheme_label("dor", "sp") == "DOR"

    def test_capability_filtering(self, torus44, mesh44, irregular16):
        # grid-bound schemes drop off graphs without grid geometry;
        # dimension-order additionally needs the wrap-free mesh
        assert "outflank" not in SCHEMES.supported(irregular16)
        assert "dor" not in SCHEMES.supported(irregular16)
        assert "dor" not in SCHEMES.supported(torus44)
        assert {"outflank", "dor"} <= set(SCHEMES.supported(mesh44))
        # the universal schemes route everything
        for g in (torus44, mesh44, irregular16):
            assert {"updown", "itb", "updown-opt"} <= \
                set(SCHEMES.supported(g))

    def test_no_scheme_sorts_by_itbs(self, torus44):
        """Builders take (g, root, max_routes_per_pair); the five-argument
        form of compute_tables accepts ``False`` only."""
        assert table_digest(compute_tables(torus44, "itb", 0, 10, False),
                            torus44) \
            == table_digest(compute_tables(torus44, "itb"), torus44)
        with pytest.raises(ValueError, match="build_itb_routes"):
            compute_tables(torus44, "itb", 0, 10, True)

    def test_unsupported_build_raises_with_topology_note(self, irregular16):
        with pytest.raises(ValueError, match="does not support"):
            compute_tables(irregular16, "outflank")
        with pytest.raises(ValueError, match="grid geometry"):
            compute_tables(irregular16, "dor")


class TestCollectorLeftAsFound:
    """``compute_tables`` pauses the cyclic collector for the build and
    hands it back as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_enabled_collector_is_enabled_again(self, torus44):
        gc.enable()
        compute_tables(torus44, "itb")
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, torus44):
        gc.disable()
        compute_tables(torus44, "itb")
        assert not gc.isenabled()

    def test_enabled_again_after_a_builder_raises(self, torus44):
        seen = []

        def broken(g, root, max_routes_per_pair):
            seen.append(gc.isenabled())
            raise ValueError("broken builder")

        SCHEMES.register(Scheme(
            name="broken-test", description="test-only: build raises",
            label=lambda p: "BROKEN", build=broken, multipath=False))
        try:
            gc.enable()
            with pytest.raises(ValueError, match="broken builder"):
                compute_tables(torus44, "broken-test")
            assert gc.isenabled()
            assert seen == [False]      # the builder ran with it paused
        finally:
            SCHEMES.unregister("broken-test")


class TestSchemeProperties:
    """Validity, determinism and deadlock freedom for every
    (registered scheme, topology builder) combination."""

    def test_every_supported_pair_validates(self, any_graph):
        g = any_graph
        for name in SCHEMES.names():
            if name not in SCHEMES.supported(g):
                with pytest.raises(ValueError, match="does not support"):
                    compute_tables(g, name)
                continue
            tables = compute_tables(g, name)
            tables.validate(g)  # structural + acyclic dependencies
            assert tables.scheme == name
            # complete: every ordered switch pair has at least one route
            pairs = {(s, t) for s in g.switches() for t in g.switches()
                     if s != t}
            assert pairs <= set(tables.routes)

    def test_deterministic_for_fixed_inputs(self, any_graph):
        g = any_graph
        for name in SCHEMES.supported(g):
            a = compute_tables(g, name, root=0)
            b = compute_tables(g, name, root=0)
            assert a.routes == b.routes
            assert a.root == b.root

    def test_multipath_declaration_matches_tables(self, torus44):
        for name in SCHEMES.supported(torus44):
            tables = compute_tables(torus44, name)
            if SCHEMES.get(name).multipath:
                assert tables.max_alternatives() > 1
            else:
                assert tables.max_alternatives() == 1


class TestDisciplineChecks:
    """``validate`` checks the property (no cyclic channel dependency),
    not a per-leg recipe; the recipe each scheme follows is asserted on
    what its builder emits."""

    def test_updown_check_catches_illegal_route(self, torus44):
        g = torus44
        tree = build_spanning_tree(g, 0)
        ud = orient_links(g, 0, tree)
        bad = None
        for dst in g.switches():
            dist = g.shortest_distances(dst)
            for src in g.switches():
                if src == dst:
                    continue
                for path in enumerate_minimal_paths(g, src, dst, dist):
                    if not ud.path_is_legal(g, path):
                        bad = (src, dst, path)
                        break
                if bad:
                    break
            if bad:
                break
        assert bad is not None, "a 4x4 torus has up*/down*-illegal " \
                                "minimal paths"
        src, dst, path = bad
        # one illegal leg alone closes no dependency cycle: the table
        # is deadlock-free in fact, and validate says so
        RoutingTables("updown", 0, ud,
                      {(src, dst): (SourceRoute.single_leg(g, path),)}
                      ).validate(g)
        # that no builder of the up*/down* family emits such a leg is a
        # fact about those builders, under the orientation they return
        for name in ("updown", "itb", "updown-opt", "outflank"):
            tables = compute_tables(g, name)
            for pair in tables.routes:
                for route in tables.source_routes(g, *pair):
                    for leg in route.legs:
                        assert tables.orientation.path_is_legal(
                            g, leg.switches), (name, leg.switches)

    def test_dimension_order_check_catches_yx_route(self, mesh44):
        g = mesh44
        good = compute_tables(g, "dor")
        # a Y-then-X path: down one row, then right one column
        yx = (g.grid.switch(0, 0), g.grid.switch(1, 0),
              g.grid.switch(1, 1))
        # adding it to the table closes no cycle (deadlock-free in fact)
        RoutingTables("dor", good.root, good.orientation,
                      {**good.routes,
                       (yx[0], yx[-1]): (SourceRoute.single_leg(g, yx),)}
                      ).validate(g)
        # but it is not what DOR emits: every route is the one X-then-Y
        # leg of dor_path
        assert dor_path(g, yx[0], yx[-1], 4, 4, False) != yx
        for (src, dst) in good.routes:
            (route,) = good.source_routes(g, src, dst)
            assert route.switch_path == dor_path(g, src, dst, 4, 4, False)
            assert route.num_itbs == 0

    def test_dimension_order_tables_get_the_hop_check(self, mesh44):
        g = mesh44
        good = compute_tables(g, "dor")
        pair = (g.grid.switch(0, 0), g.grid.switch(1, 1))
        (leg,) = good.source_routes(g, *pair)[0].legs
        swapped = SourceRoute((RouteLeg(leg.switches, leg.links[::-1]),))
        bad = RoutingTables("dor", good.root, good.orientation,
                            {**good.routes, pair: (swapped,)})
        with pytest.raises(AssertionError, match="does not join"):
            bad.validate(g)

    def test_dimension_order_check_catches_reversal(self, mesh44):
        g = mesh44
        good = compute_tables(g, "dor")
        # east one column, then straight back west: a packet long enough
        # to cover both hops waits on the channel it holds
        a, b = g.grid.switch(0, 0), g.grid.switch(0, 1)
        zig = (a, b, a, b)
        routes = dict(good.routes)
        routes[(zig[0], zig[-1])] = (SourceRoute.single_leg(g, zig),)
        bad = RoutingTables("dor", good.root, good.orientation, routes)
        cycle = bad.dependency_cycle(g)
        lid = g.link_between(a, b)
        assert sorted(cycle) == [lid << 1, lid << 1 | 1]
        with pytest.raises(AssertionError, match=(
                rf"channel dependency cycle {a}->{b} \(link {lid}\), "
                rf"{b}->{a} \(link {lid}\)")):
            bad.validate(g)

    def test_unsplit_minimal_routes_are_cyclic_and_itb_split_cures_them(
            self, torus44):
        """The paper's argument as a test: minimal routing on a torus
        closes dependency cycles around the rings; cutting the *same*
        paths at their down->up violations leaves none."""
        g = torus44
        ud = orient_links(g, 0, build_spanning_tree(g, 0))
        split = build_itb_routes(g, ud, 10, False)
        unsplit = {
            pair: tuple(SourceRoute.single_leg(
                g, SourceRoute.from_store(g, pair[0], r).switch_path)
                        for r in alts)
            for pair, alts in split.items()}
        # the first ring of the torus, all the way round
        with pytest.raises(AssertionError, match=(
                r"channel dependency cycle 0->1 \(link 0\), "
                r"1->2 \(link 2\), 2->3 \(link 4\), 3->0 \(link 6\)")):
            RoutingTables("itb", 0, ud, unsplit).validate(g)
        RoutingTables("itb", 0, ud, split).validate(g)


class TestBuiltTableIsOld:
    """A finished build leaves the young generations at once: the next
    gen-0 and gen-1 passes do not scan the table it just built, nothing
    stays frozen, and a full collection still sees everything."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_the_table_is_in_no_young_generation(self, torus44):
        tables = compute_tables(torus44, "itb")
        records = [r for r in tables.routes._records if r is not None]
        young = {id(o) for gen in (0, 1)
                 for o in gc.get_objects(generation=gen)}
        assert id(tables.routes) not in young
        assert not any(id(o) in young
                       for r in records for o in (r, *r, *r[0]))
        assert gc.get_freeze_count() == 0

    def test_earlier_cyclic_garbage_is_still_collected(self, torus44):
        class Node:
            pass

        gc.disable()    # keep the cycle young until the build
        a, b = Node(), Node()
        a.other, b.other = b, a
        gone = weakref.ref(a)
        del a, b
        compute_tables(torus44, "updown")
        assert gone() is not None       # moved on, not collected yet
        gc.collect()
        assert gone() is None


class TestChecksSurviveOptimisation:
    """``python -O`` strips ``assert`` statements; the table and
    topology checks raise explicitly, so they still refuse."""

    def test_a_cyclic_table_fails_validate_under_O(self):
        # an unfrozen graph fails check_topology on the way
        script = textwrap.dedent("""
            from repro.routing import (RoutingTables, build_itb_routes,
                                       build_spanning_tree, orient_links)
            from repro.routing.routes import SourceRoute
            from repro.topology import (NetworkGraph, build_torus,
                                        check_topology)

            assert False, "-O strips this statement"
            try:
                check_topology(NetworkGraph(2))
            except AssertionError as e:
                print(e)
            g = build_torus(rows=4, cols=4, hosts_per_switch=2)
            ud = orient_links(g, 0, build_spanning_tree(g, 0))
            unsplit = {
                pair: tuple(SourceRoute.single_leg(
                    g, SourceRoute.from_store(g, pair[0], r).switch_path)
                            for r in alts)
                for pair, alts in build_itb_routes(g, ud, 10).items()}
            try:
                RoutingTables("itb", 0, ud, unsplit).validate(g)
            except AssertionError as e:
                print(e)
            """)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True).stdout
        assert "topology must be frozen before use" in out
        assert "'itb' tables can deadlock" in out


class TestAngara:
    def test_root_is_graph_centre(self, mesh44):
        root = select_root(mesh44)
        ecc = {}
        for s in mesh44.switches():
            dist = mesh44.shortest_distances(s)
            ecc[s] = max(dist[t] for t in mesh44.switches())
        assert ecc[root] == min(ecc.values())
        # on the 4x4 mesh the centre is strictly better than the
        # corner the baseline defaults to
        assert ecc[root] < ecc[0]

    def test_opt_tables_use_centre_root(self, mesh44):
        tables = compute_tables(mesh44, "updown-opt", root=0)
        assert tables.root == select_root(mesh44)


class TestOutFlank:
    def test_flank_paths_are_nonminimal_alternatives(self, torus44):
        g = torus44
        tables = compute_tables(g, "outflank")
        longer = 0
        for (src, dst), alts in tables.routes.items():
            if src == dst:
                continue
            d = g.shortest_distances(src)[dst]
            hops = [route_hops(r) for r in alts]
            assert min(hops) == d  # a minimal path is always offered
            longer += sum(1 for h in hops if h > d)
        assert longer > 0  # and flanking detours actually exist

    @pytest.mark.parametrize("scheme", ["outflank", "updown-opt"])
    def test_engine_parity_smoke(self, scheme):
        """Both engines drain the same rival-scheme workload identically."""
        g = build_mesh(rows=3, cols=3, hosts_per_switch=2)
        tables = compute_tables(g, scheme)
        rng = random.Random(11)
        pairs = [(a, b) for a, b in
                 ((rng.randrange(g.num_hosts), rng.randrange(g.num_hosts))
                  for _ in range(40)) if a != b][:20]
        results = {}
        for engine in ("packet", "flit"):
            sim = Simulator()
            net = make_network(engine, sim, g, tables,
                               make_policy("rr", seed=7), PAPER_PARAMS,
                               message_bytes=256)
            pkts = [net.send(src, dst) for src, dst in pairs]
            sim.run_until_idle()
            assert net.delivered == len(pairs)
            results[engine] = {
                "itb_hist": Counter(p.num_itbs for p in pkts),
                "links": {(c.src, c.dst, c.link_id): c.flits
                          for c in net.link_flit_counts()},
            }
        assert results["packet"] == results["flit"]

    def test_runs_under_simconfig(self):
        cfg = small_config(routing="outflank", policy="rr",
                           injection_rate=0.005)
        from repro.runner import run_simulation
        s = run_simulation(cfg)
        assert s.messages_delivered > 0
        assert s.config.label() == "OFR-RR"
