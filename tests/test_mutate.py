"""Topology mutation (link failures) and failure-mode routing."""

import pytest

from repro.config import SimConfig
from repro.runner import run_simulation
from repro.routing.analysis import route_statistics
from repro.routing import compute_tables
from repro.topology import build_mutated, build_torus, check_topology
from repro.topology.mutate import without_links, without_links_mapped
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

    def test_no_nesting(self):
        with pytest.raises(ValueError, match="nest"):
            build_mutated(base="mutated")


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
