"""Route data-structure invariants: the store form every table holds,
the one spelling of a route."""

import gc
import tracemalloc

import pytest

from repro.routing import RoutingTables, compute_tables
from repro.routing.routes import (hop, leg_switches, make_route, path_hops,
                                  route_hops, route_links, route_switches)
from repro.routing.table import RouteStore
from repro.runner import run_simulation
from repro.topology import build_torus

#: held-bytes budgets of the fully looked-up 8x8 torus tables: what the
#: store holds here (3.36 and 0.82 MB on CPython 3.11) plus 10 %
ITB_BUDGET_MB = 3.7
UPDOWN_BUDGET_MB = 0.9


@pytest.fixture(scope="module")
def g44():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


class TestRouteLeg:
    """A route leg in store form: the directed hops :func:`path_hops`
    makes from a switch path, walked back by :func:`leg_switches`."""

    def test_from_switch_path(self, g44):
        leg = path_hops(g44, (0, 1, 2))
        assert len(leg) == 2
        assert tuple(h >> 1 for h in leg) == (g44.link_between(0, 1),
                                              g44.link_between(1, 2))
        assert leg_switches(g44, 0, leg) == (0, 1, 2)

    def test_single_switch(self, g44):
        leg = path_hops(g44, (5,))
        assert leg == ()
        assert leg_switches(g44, 5, leg) == (5,)

    def test_unlinked_pair_rejected(self, g44):
        with pytest.raises(ValueError):
            path_hops(g44, (0, 5))


class TestSourceRoute:
    """A source route spelled by hand: legs joined by
    :func:`make_route` at their in-transit hosts, and what the readers
    get back from it."""

    def test_single_leg(self, g44):
        route = make_route([path_hops(g44, (0, 1, 2))])
        assert route[:2] == ((2,), ())
        assert route_hops(route) == 2
        assert route_switches(g44, 0, route) == ((0, 1, 2),)

    def test_multi_leg_chaining(self, g44):
        leg1 = path_hops(g44, (0, 1, 2))
        leg2 = path_hops(g44, (2, 3))
        itb_host = g44.hosts_at(2)[0]
        route = make_route([leg1, leg2], (itb_host,))
        assert route[2:] == (leg1, leg2)
        assert route[1] == (itb_host,)
        assert route[0] == (4, 1)
        assert route_hops(route) == 3
        assert route_links(route) == tuple(h >> 1 for h in leg1 + leg2)
        assert route_switches(g44, 0, route) == ((0, 1, 2), (2, 3))

    def test_trivial_route(self, g44):
        route = make_route([path_hops(g44, (7,))])
        assert route == ((0,), (), ())
        assert route_hops(route) == 0
        assert route_switches(g44, 7, route) == ((7,),)


class TestStoreForm:
    """What a table holds, and what a switch-level reading of it turns
    back into."""

    def test_round_trip_through_the_view(self, g44):
        """A route read as switch paths by :func:`route_switches` and
        spelled again from them is the same route."""
        itb_host = g44.hosts_at(2)[0]
        route = make_route([path_hops(g44, (0, 1, 2)),
                            path_hops(g44, (2, 6, 7))], (itb_host,))
        view = route_switches(g44, 0, route)
        assert view == ((0, 1, 2), (2, 6, 7))
        again = make_route([path_hops(g44, p) for p in view], route[1])
        assert again == route
        assert again[0] is route[0]     # the overheads are interned
        assert route_links(again) == g44.path_links((0, 1, 2, 6, 7))

    def test_a_hop_names_its_direction(self, g44):
        lid = g44.link_between(0, 1)
        (fwd,) = path_hops(g44, (0, 1))
        (rev,) = path_hops(g44, (1, 0))
        assert (fwd, rev) == (hop(lid, 0, 1), hop(lid, 1, 0))
        assert (fwd, rev) == (lid << 1, lid << 1 | 1)
        assert leg_switches(g44, 1, (rev,)) == (1, 0)


class TestEveryTableIsOneStore:
    @pytest.fixture(scope="class")
    def cfg(self):
        from repro.config import SimConfig
        from repro.units import ns
        return SimConfig(topology="torus",
                         topology_kwargs={"rows": 4, "cols": 4,
                                          "hosts_per_switch": 2},
                         routing="itb", policy="rr", injection_rate=0.02,
                         warmup_ps=ns(20_000), measure_ps=ns(60_000))

    @pytest.fixture(scope="class")
    def tables(self, g44):
        return compute_tables(g44, "itb")

    def test_a_hand_written_table_runs_from_the_store(self, g44, cfg,
                                                      tables):
        """The deadlock tests' ``tables=`` spelling: a dict of routes
        made by :func:`make_route` over :func:`path_hops` legs becomes
        the same store a scheme builds, and runs the same simulation."""
        by_hand = {
            (src, dst): tuple(
                make_route([path_hops(g44, switches) for switches
                            in route_switches(g44, src, r)], r[1])
                for r in alts)
            for (src, dst), alts in tables.routes.items()}
        again = RoutingTables("itb", tables.root, tables.orientation,
                              by_hand)
        assert isinstance(again.routes, RouteStore)
        assert again.routes == tables.routes
        assert (run_simulation(cfg, tables=again)
                == run_simulation(cfg, tables=tables))

    def test_a_remapped_table_runs_from_the_store(self, g44, cfg, tables):
        """Reconfiguration hands the engine ``with_remapped_links``
        tables: a store too, with every hop's link translated and its
        direction kept."""
        identity = {lid: lid for lid in range(g44.num_links)}
        same = tables.with_remapped_links(identity)
        assert isinstance(same.routes, RouteStore)
        assert same.routes == tables.routes
        assert (run_simulation(cfg, tables=same)
                == run_simulation(cfg, tables=tables))
        swap = {lid: g44.num_links - 1 - lid for lid in range(g44.num_links)}
        moved = tables.with_remapped_links(swap)
        for pair, alts in tables.routes.items():
            for old, new in zip(alts, moved.routes[pair]):
                assert new[:2] == old[:2]
                assert route_links(new) == tuple(swap[lid] for lid
                                                 in route_links(old))
                assert ([h & 1 for leg in new[2:] for h in leg]
                        == [h & 1 for leg in old[2:] for h in leg])


class TestTableMemory:
    """The fully looked-up 8x8 torus tables, as ``tracemalloc`` sees
    them once the build's transients are gone (free lists emptied).
    Holding a route or leg object per entry, as the tables did before
    they were stored as directed hops, reads 7.9 MB (``itb``) and
    2.5 MB (``updown``) here."""

    @staticmethod
    def _held_bytes(g, scheme):
        compute_tables(g, scheme).routes.values()   # the graph's caches
        gc.collect()                    # also empties the free lists
        tracemalloc.start()
        try:
            tables = compute_tables(g, scheme)
            tables.routes.values()
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("scheme,budget_mb", [("itb", ITB_BUDGET_MB),
                                                  ("updown",
                                                   UPDOWN_BUDGET_MB)])
    def test_the_paper_torus_tables_fit_their_budget(self, scheme,
                                                     budget_mb):
        held = self._held_bytes(build_torus(), scheme)
        assert held <= budget_mb * 1e6, f"{held / 1e6:.2f} MB"
