"""Minimal-path enumeration, cross-checked against networkx and a DP count."""

import networkx as nx
import pytest

from repro.routing.reference import count_minimal_paths, enumerate_minimal_paths
from repro.topology import build_torus


@pytest.fixture(scope="module")
def g44():
    return build_torus(rows=4, cols=4, hosts_per_switch=1)


def nx_graph(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_switches))
    nxg.add_edges_from((ln.a, ln.b) for ln in g.links)
    return nxg


def test_paths_are_shortest(g44):
    for dst in (0, 6, 15):
        dist = g44.shortest_distances(dst)
        for src in g44.switches():
            for p in enumerate_minimal_paths(g44, src, dst, dist,
                                             max_paths=1000):
                assert len(p) - 1 == dist[src]
                assert p[0] == src and p[-1] == dst


def test_matches_networkx_all_shortest_paths(g44):
    nxg = nx_graph(g44)
    for src, dst in [(0, 15), (3, 12), (5, 10), (1, 2)]:
        dist = g44.shortest_distances(dst)
        ours = set(enumerate_minimal_paths(g44, src, dst, dist,
                                           max_paths=100_000))
        theirs = {tuple(p) for p in nx.all_shortest_paths(nxg, src, dst)}
        assert ours == theirs


def test_cap_respected(g44):
    dist = g44.shortest_distances(15)
    # 0 -> 15 is the wraparound corner pair with several shortest paths
    all_paths = enumerate_minimal_paths(g44, 0, 15, dist, max_paths=1000)
    assert len(all_paths) >= 2
    capped = enumerate_minimal_paths(g44, 0, 15, dist, max_paths=2)
    assert len(capped) == 2
    assert set(capped) <= set(all_paths)


def test_same_switch(g44):
    dist = g44.shortest_distances(3)
    assert enumerate_minimal_paths(g44, 3, 3, dist) == [(3,)]


def test_deterministic(g44):
    dist = g44.shortest_distances(9)
    a = enumerate_minimal_paths(g44, 2, 9, dist, max_paths=10)
    b = enumerate_minimal_paths(g44, 2, 9, dist, max_paths=10)
    assert a == b


def test_count_matches_enumeration(g44):
    for dst in (0, 11):
        dist = g44.shortest_distances(dst)
        counts = count_minimal_paths(g44, dst, dist)
        for src in g44.switches():
            enum = enumerate_minimal_paths(g44, src, dst, dist,
                                           max_paths=100_000)
            assert counts[src] == len(enum)


def test_count_matches_networkx(g44):
    nxg = nx_graph(g44)
    dst = 10
    dist = g44.shortest_distances(dst)
    counts = count_minimal_paths(g44, dst, dist)
    for src in g44.switches():
        if src == dst:
            continue
        expected = len(list(nx.all_shortest_paths(nxg, src, dst)))
        assert counts[src] == expected
