"""Topology builders: the paper's three networks plus the generators."""

import networkx as nx
import pytest

from repro.topology import (TOPOLOGIES, build, build_irregular, build_torus,
                            build_torus_express, check_topology)
from repro.topology.cplant import (GROUP_SIZE, NUM_GROUPS,
                                   group_neighbour_pairs, group_switch)
from repro.topology.torus import switch_coords, switch_id


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_switches))
    nxg.add_edges_from((ln.a, ln.b) for ln in g.links)
    return nxg


class TestTorus:
    def test_paper_configuration(self, torus88):
        """64 switches, 8 hosts each (512 hosts), 4 links per switch,
        4 ports left open (Section 4.1)."""
        g = torus88
        assert g.num_switches == 64
        assert g.num_hosts == 512
        assert g.num_links == 128  # 64 switches * 4 links / 2
        for s in g.switches():
            assert g.degree(s) == 4
            assert len(g.hosts_at(s)) == 8
            assert g.ports_free(s) == 4

    def test_wraparound(self):
        g = build_torus(rows=4, cols=4, hosts_per_switch=1)
        # (0,0) connects to (0,3) and (3,0)
        assert g.link_between(switch_id(0, 0, 4), switch_id(0, 3, 4)) is not None
        assert g.link_between(switch_id(0, 0, 4), switch_id(3, 0, 4)) is not None

    def test_distances_match_manhattan_ring_metric(self, torus44):
        """BFS distance equals the wraparound Manhattan distance."""
        cols = rows = 4
        for src in torus44.switches():
            dist = torus44.shortest_distances(src)
            r0, c0 = switch_coords(src, cols)
            for dst in torus44.switches():
                r1, c1 = switch_coords(dst, cols)
                dr = min(abs(r0 - r1), rows - abs(r0 - r1))
                dc = min(abs(c0 - c1), cols - abs(c0 - c1))
                assert dist[dst] == dr + dc

    def test_degenerate_rings(self):
        g2 = build_torus(rows=2, cols=1, hosts_per_switch=1, switch_ports=4)
        assert g2.num_links == 1  # the wrap link coincides with the direct
        g1 = build_torus(rows=1, cols=1, hosts_per_switch=1, switch_ports=4)
        assert g1.num_links == 0

    def test_port_overflow_rejected(self):
        with pytest.raises(ValueError):
            build_torus(rows=8, cols=8, hosts_per_switch=15)

    def test_validates(self, torus44):
        check_topology(torus44)

    def test_vertex_transitive_degree(self, torus88):
        degs = {torus88.degree(s) for s in torus88.switches()}
        assert degs == {4}


class TestExpressTorus:
    def test_paper_configuration(self):
        """All 16 ports used: 4 torus + 4 express + 8 hosts (Section 4.1)."""
        g = build_torus_express()
        assert g.num_switches == 64
        assert g.num_hosts == 512
        assert g.num_links == 256  # exactly double the plain torus
        for s in g.switches():
            assert g.degree(s) == 8
            assert g.ports_free(s) == 0

    def test_express_channels_reach_two_hops(self):
        g = build_torus_express(rows=8, cols=8, hosts_per_switch=8)
        s = switch_id(2, 3, 8)
        assert g.link_between(s, switch_id(2, 5, 8)) is not None
        assert g.link_between(s, switch_id(4, 3, 8)) is not None
        assert g.link_between(s, switch_id(2, 1, 8)) is not None
        assert g.link_between(s, switch_id(0, 3, 8)) is not None

    def test_diameter_reduced(self, torus88):
        ge = build_torus_express()
        d_plain = max(max(row) for row in torus88.all_pairs_distances())
        d_exp = max(max(row) for row in ge.all_pairs_distances())
        assert d_exp < d_plain

    def test_avg_distance_roughly_halved(self, torus88):
        """Paper: 'average distance to message destinations is almost
        reduced to the half'."""
        ge = build_torus_express()
        def avg(g):
            rows = g.all_pairs_distances()
            n = g.num_switches
            return sum(map(sum, rows)) / (n * (n - 1))
        assert avg(ge) < 0.66 * avg(torus88)

    def test_ring_of_four_no_duplicate_express(self):
        g = build_torus_express(rows=4, cols=4, hosts_per_switch=2)
        # in a 4-ring, +2 and -2 reach the same switch: one express cable
        for s in g.switches():
            assert g.degree(s) == 6  # 4 torus + 2 express (one per dim)
        check_topology(g)

    def test_validates(self, express44):
        check_topology(express44)


class TestCplant:
    def test_paper_configuration(self, cplant):
        """50 switches, 400 nodes, 8 hosts per switch (Section 4.1)."""
        assert cplant.num_switches == 50
        assert cplant.num_hosts == 400
        for s in cplant.switches():
            assert len(cplant.hosts_at(s)) == 8

    def test_intra_group_is_cube_plus_complement(self, cplant):
        for grp in range(NUM_GROUPS):
            for b in range(GROUP_SIZE):
                s = group_switch(grp, b)
                expected = {group_switch(grp, b ^ bit)
                            for bit in (1, 2, 4)} | {group_switch(grp, b ^ 7)}
                intra = {nb for nb, _ in cplant.neighbors(s)
                         if nb // GROUP_SIZE == grp and nb < 48}
                assert intra == expected

    def test_group_graph_degree_three(self):
        pairs = group_neighbour_pairs()
        assert len(pairs) == 9
        deg = {g: 0 for g in range(NUM_GROUPS)}
        for a, b in pairs:
            deg[a] += 1
            deg[b] += 1
        assert all(d == 3 for d in deg.values())

    def test_not_completely_regular(self, cplant):
        """The paper notes the topology is not completely regular."""
        degrees = {cplant.degree(s) for s in cplant.switches()}
        assert len(degrees) > 1

    def test_port_budget(self, cplant):
        for s in cplant.switches():
            assert cplant.ports_used(s) <= 16

    def test_validates(self, cplant):
        check_topology(cplant)

    def test_diameter_small(self, cplant):
        d = max(max(row) for row in cplant.all_pairs_distances())
        assert d <= 6


class TestIrregular:
    def test_deterministic_for_seed(self):
        a = build_irregular(num_switches=12, seed=9)
        b = build_irregular(num_switches=12, seed=9)
        assert [(l.a, l.b) for l in a.links] == [(l.a, l.b) for l in b.links]

    def test_different_seeds_differ(self):
        a = build_irregular(num_switches=12, seed=1)
        b = build_irregular(num_switches=12, seed=2)
        assert [(l.a, l.b) for l in a.links] != [(l.a, l.b) for l in b.links]

    def test_connected_and_valid(self):
        for seed in range(5):
            g = build_irregular(num_switches=20, hosts_per_switch=2,
                                seed=seed)
            check_topology(g)
            assert g.is_connected()

    def test_degree_bound(self):
        g = build_irregular(num_switches=30, max_switch_links=4, seed=4)
        assert all(g.degree(s) <= 4 for s in g.switches())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_irregular(num_switches=1)

    def test_port_budget_rejected(self):
        with pytest.raises(ValueError):
            build_irregular(num_switches=8, hosts_per_switch=14,
                            max_switch_links=4, switch_ports=16)


class TestRegistry:
    def test_build_by_name(self):
        g = build("torus", rows=4, cols=4, hosts_per_switch=2)
        assert g.num_switches == 16

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build("hypertorus")

    def test_all_registered_buildable_small(self):
        kwargs = {
            "torus": {"rows": 4, "cols": 4, "hosts_per_switch": 2},
            "torus-express": {"rows": 5, "cols": 5, "hosts_per_switch": 2},
            "cplant": {},
            "irregular": {"num_switches": 8, "hosts_per_switch": 2},
            "mesh": {"rows": 3, "cols": 4, "hosts_per_switch": 2},
            "mutated": {"base": "torus",
                        "base_kwargs": {"rows": 3, "cols": 3,
                                        "hosts_per_switch": 2},
                        "failed_links": [0]},
        }
        for name in TOPOLOGIES:
            g = build(name, **kwargs[name])
            check_topology(g)


class TestNetworkxCrossCheck:
    """Independent validation of connectivity/distance machinery."""

    def test_distances_match_networkx(self, cplant):
        nxg = to_networkx(cplant)
        for src in (0, 17, 49):
            ours = cplant.shortest_distances(src)
            theirs = nx.single_source_shortest_path_length(nxg, src)
            for dst in cplant.switches():
                assert ours[dst] == theirs[dst]

    def test_connectivity_matches_networkx(self, irregular16):
        assert nx.is_connected(to_networkx(irregular16)) == \
            irregular16.is_connected()
