"""Topology mutation (link/switch failures) and failure-mode routing."""

import pytest

from repro.config import SimConfig
from repro.experiments.runner import run_simulation
from repro.routing.analysis import route_statistics
from repro.routing.table import compute_tables
from repro.topology import build_mutated, build_torus, check_topology
from repro.topology.mutate import (without_links, without_links_mapped,
                                   without_switch, without_switch_mapped)
from repro.topology.mutated import mutation_maps
from repro.units import ns


@pytest.fixture(scope="module")
def torus44():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


class TestWithoutLinks:
    def test_removes_exactly_the_links(self, torus44):
        lid = torus44.link_between(0, 1)
        g2 = without_links(torus44, [lid])
        check_topology(g2)
        assert g2.num_links == torus44.num_links - 1
        assert g2.link_between(0, 1) is None
        assert g2.num_switches == torus44.num_switches
        assert g2.num_hosts == torus44.num_hosts

    def test_hosts_preserved(self, torus44):
        g2 = without_links(torus44, [0])
        for h in torus44.hosts:
            assert g2.host_switch(h.id) == h.switch

    def test_original_untouched(self, torus44):
        before = torus44.num_links
        without_links(torus44, [0, 1])
        assert torus44.num_links == before

    def test_partition_detected(self):
        # a 1x2 "torus" has a single link: removing it partitions
        g = build_torus(rows=1, cols=2, hosts_per_switch=1, switch_ports=4)
        with pytest.raises(ValueError, match="partitions"):
            without_links(g, [0])

    def test_partition_allowed_when_requested(self):
        g = build_torus(rows=1, cols=2, hosts_per_switch=1, switch_ports=4)
        g2 = without_links(g, [0], require_connected=False)
        assert not g2.is_connected()

    def test_out_of_range(self, torus44):
        with pytest.raises(ValueError):
            without_links(torus44, [999])


class TestWithoutSwitch:
    def test_structure(self, torus44):
        g2 = without_switch(torus44, 5)
        check_topology(g2)
        assert g2.num_switches == 15
        assert g2.num_hosts == 30     # 2 hosts went down with switch 5
        # old switch 6 is new switch 5; old 4 stays 4
        assert g2.degree(4) == torus44.degree(4) - 1  # lost link to old 5

    def test_id_shift(self, torus44):
        g2 = without_switch(torus44, 0)
        # old link (1, 2) must exist as (0, 1)
        assert g2.link_between(0, 1) is not None

    def test_out_of_range(self, torus44):
        with pytest.raises(ValueError):
            without_switch(torus44, 99)

    def test_last_switch_rejected(self):
        from repro.topology.graph import NetworkGraph
        g = NetworkGraph(1, 4)
        g.add_host(0)
        g.freeze()
        with pytest.raises(ValueError):
            without_switch(g, 0)


class TestWithoutLinksMapped:
    def test_link_map_tracks_renumbering(self, torus44):
        dead = [3, 7]
        rem = without_links_mapped(torus44, dead)
        check_topology(rem.graph)
        assert set(rem.link_map) == set(range(torus44.num_links)) - set(dead)
        # every surviving cable keeps its endpoints under the new id
        for old, new in rem.link_map.items():
            assert (rem.graph.links[new].endpoints()
                    == torus44.links[old].endpoints())

    def test_plain_wrapper_matches(self, torus44):
        g2 = without_links(torus44, [3, 7])
        rem = without_links_mapped(torus44, [3, 7])
        assert g2.num_links == rem.graph.num_links


class TestWithoutSwitchMapped:
    def test_maps_cover_survivors_only(self, torus44):
        rem = without_switch_mapped(torus44, 5)
        check_topology(rem.graph)
        assert 5 not in rem.switch_map
        assert set(rem.switch_map) == set(range(16)) - {5}
        dead_hosts = set(torus44.hosts_at(5))
        assert set(rem.host_map) == set(range(torus44.num_hosts)) - dead_hosts

    def test_hosts_stay_attached_to_mapped_switch(self, torus44):
        """The whole point of the maps: a host's switch in the new
        graph is the mapped id of its old switch -- per-host data can
        be aligned across the failure without guessing the shift."""
        rem = without_switch_mapped(torus44, 5)
        for old_h, new_h in rem.host_map.items():
            old_sw = torus44.host_switch(old_h)
            assert rem.graph.host_switch(new_h) == rem.switch_map[old_sw]

    def test_maps_are_dense_and_order_preserving(self, torus44):
        rem = without_switch_mapped(torus44, 0)
        assert sorted(rem.switch_map.values()) == list(range(15))
        olds = sorted(rem.switch_map)
        news = [rem.switch_map[o] for o in olds]
        assert news == sorted(news)


class TestMutatedBuilder:
    def test_matches_direct_mutation(self, torus44):
        g = build_mutated(base="torus",
                          base_kwargs={"rows": 4, "cols": 4,
                                       "hosts_per_switch": 2},
                          failed_links=[3, 7])
        ref = without_links(torus44, [3, 7])
        check_topology(g)
        assert g.num_links == ref.num_links
        assert ([link.endpoints() for link in g.links]
                == [link.endpoints() for link in ref.links])

    def test_switch_failure_after_links(self, torus44):
        g = build_mutated(base="torus",
                          base_kwargs={"rows": 4, "cols": 4,
                                       "hosts_per_switch": 2},
                          failed_links=[3], failed_switch=5)
        check_topology(g)
        assert g.num_switches == 15

    def test_no_nesting(self):
        with pytest.raises(ValueError, match="nest"):
            build_mutated(base="mutated")

    def test_mutation_maps_identity_for_link_failures(self):
        kwargs = {"rows": 4, "cols": 4, "hosts_per_switch": 2}
        sw_map, h_map = mutation_maps("torus", kwargs, failed_links=[3])
        assert sw_map == {s: s for s in range(16)}
        assert h_map == {h: h for h in range(32)}

    def test_mutation_maps_switch_failure(self, torus44):
        kwargs = {"rows": 4, "cols": 4, "hosts_per_switch": 2}
        sw_map, h_map = mutation_maps("torus", kwargs, failed_switch=5)
        ref = without_switch_mapped(torus44, 5)
        assert sw_map == ref.switch_map
        assert h_map == ref.host_map


class TestRoutingAfterFailure:
    def test_tables_recompute_and_stay_deadlock_free(self, torus44):
        lid = torus44.link_between(0, 1)
        g2 = without_links(torus44, [lid])
        for scheme in ("updown", "itb"):
            t = compute_tables(g2, scheme)
            t.validate(g2)   # every leg legal => deadlock-free

    def test_simulation_on_degraded_network(self, torus44):
        """Traffic still flows after a failure near the root."""
        lid = torus44.link_between(0, 1)
        cfg = SimConfig(topology="mutated",
                        topology_kwargs={
                            "base": "torus",
                            "base_kwargs": {"rows": 4, "cols": 4,
                                            "hosts_per_switch": 2},
                            "failed_links": [lid]},
                        routing="itb", policy="rr", traffic="uniform",
                        injection_rate=0.02,
                        warmup_ps=ns(30_000), measure_ps=ns(120_000))
        s = run_simulation(cfg)
        assert s.messages_delivered > 0
        assert not s.saturated

    def test_distance_degrades_gracefully(self, torus44):
        lid = torus44.link_between(0, 1)
        g2 = without_links(torus44, [lid])
        before = route_statistics(torus44, compute_tables(torus44, "itb"))
        after = route_statistics(g2, compute_tables(g2, "itb"))
        assert after.avg_minimal_distance >= before.avg_minimal_distance
        assert after.fraction_minimal == 1.0  # ITB stays minimal
