"""Route data-structure invariants: the store form every table holds,
and its switch-level RouteLeg / SourceRoute views."""

import gc
import tracemalloc

import pytest

from repro.routing import RoutingTables, compute_tables
from repro.routing.routes import (RouteLeg, SourceRoute, hop, leg_switches,
                                  route_hops, route_links)
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
    def test_from_switch_path(self, g44):
        leg = RouteLeg.from_switch_path(g44, (0, 1, 2))
        assert leg.hops == 2
        assert leg.start == 0 and leg.end == 2
        assert leg.links == (g44.link_between(0, 1), g44.link_between(1, 2))

    def test_single_switch(self, g44):
        leg = RouteLeg.from_switch_path(g44, (5,))
        assert leg.hops == 0
        assert leg.start == leg.end == 5

    def test_unlinked_pair_rejected(self, g44):
        with pytest.raises(ValueError):
            RouteLeg.from_switch_path(g44, (0, 5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RouteLeg((), ())

    def test_link_count_mismatch(self):
        with pytest.raises(ValueError):
            RouteLeg((0, 1), ())


class TestSourceRoute:
    def test_single_leg(self, g44):
        r = SourceRoute.single_leg(g44, (0, 1, 2))
        assert r.src == 0 and r.dst == 2
        assert r.num_itbs == 0
        assert r.switch_hops == 2
        assert r.switch_path == (0, 1, 2)

    def test_multi_leg_chaining(self, g44):
        leg1 = RouteLeg.from_switch_path(g44, (0, 1, 2))
        leg2 = RouteLeg.from_switch_path(g44, (2, 3))
        itb_host = g44.hosts_at(2)[0]
        r = SourceRoute((leg1, leg2), (itb_host,))
        assert r.src == 0 and r.dst == 3
        assert r.num_itbs == 1
        assert r.switch_hops == 3
        assert r.switch_path == (0, 1, 2, 3)
        assert list(r.iter_links()) == list(leg1.links) + list(leg2.links)

    def test_broken_chain_rejected(self, g44):
        leg1 = RouteLeg.from_switch_path(g44, (0, 1))
        leg2 = RouteLeg.from_switch_path(g44, (2, 3))
        with pytest.raises(ValueError):
            SourceRoute((leg1, leg2), (g44.hosts_at(2)[0],))

    def test_itb_count_mismatch_rejected(self, g44):
        leg1 = RouteLeg.from_switch_path(g44, (0, 1))
        leg2 = RouteLeg.from_switch_path(g44, (1, 2))
        with pytest.raises(ValueError):
            SourceRoute((leg1, leg2), ())

    def test_no_legs_rejected(self):
        with pytest.raises(ValueError):
            SourceRoute(())

    def test_trivial_route(self, g44):
        r = SourceRoute((RouteLeg((7,), ()),))
        assert r.src == r.dst == 7
        assert r.switch_hops == 0
        assert r.switch_path == (7,)


class TestStoreForm:
    """What a table holds, and what its views and hand-written tables
    turn into: every table reaches the engines as one store."""

    def test_round_trip_through_the_view(self, g44):
        leg1 = RouteLeg.from_switch_path(g44, (0, 1, 2))
        leg2 = RouteLeg.from_switch_path(g44, (2, 3))
        view = SourceRoute((leg1, leg2), (g44.hosts_at(2)[0],))
        route = view.to_store()
        assert route[2:] == (leg1.dir_hops, leg2.dir_hops)
        assert route[1] == view.itb_hosts
        assert route[0] == view.leg_overheads == (4, 1)
        assert route_hops(route) == view.switch_hops == 3
        assert route_links(route) == view.link_ids
        assert SourceRoute.from_store(g44, 0, route) == view

    def test_a_hop_names_its_direction(self, g44):
        lid = g44.link_between(0, 1)
        (fwd,) = RouteLeg.from_switch_path(g44, (0, 1)).dir_hops
        (rev,) = RouteLeg.from_switch_path(g44, (1, 0)).dir_hops
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
        """The deadlock tests' ``tables=`` spelling: a dict of
        ``SourceRoute`` values becomes the same store a scheme builds,
        and runs the same simulation."""
        by_hand = {pair: tables.source_routes(g44, *pair)
                   for pair in tables.routes}
        again = RoutingTables("itb", tables.root, tables.orientation,
                              by_hand)
        assert isinstance(again.routes, RouteStore)
        assert again.routes == tables.routes
        assert not any(isinstance(r, SourceRoute)
                       for alts in again.routes.values() for r in alts)
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
