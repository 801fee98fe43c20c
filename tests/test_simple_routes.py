"""The simple_routes (UP/DOWN baseline) reimplementation."""

import pytest

from repro.routing.reference import legal_shortest_distances
from repro.routing.simple_routes import compute_simple_routes
from repro.routing.updown import orient_links
from repro.topology import build_torus


@pytest.fixture(scope="module")
def g44():
    return build_torus(rows=4, cols=4, hosts_per_switch=1)


@pytest.fixture(scope="module")
def ud44(g44):
    return orient_links(g44, root=0)


@pytest.fixture(scope="module")
def routes44(g44, ud44):
    return compute_simple_routes(g44, ud44)


def test_every_ordered_pair_present(g44, routes44):
    n = g44.num_switches
    assert len(routes44) == n * n
    for s in g44.switches():
        assert routes44[(s, s)] == (s,)


def test_all_routes_legal(g44, ud44, routes44):
    for (src, dst), path in routes44.items():
        assert path[0] == src and path[-1] == dst
        assert ud44.path_is_legal(g44, path)


def test_routes_within_slack_of_shortest_legal(g44, ud44, routes44):
    for src in g44.switches():
        legal = legal_shortest_distances(g44, ud44, src)
        for dst in g44.switches():
            path = routes44[(src, dst)]
            assert len(path) - 1 <= legal[dst] + 1  # default slack = 1


def test_deterministic(g44, ud44):
    a = compute_simple_routes(g44, ud44)
    b = compute_simple_routes(g44, ud44)
    assert a == b


def test_balancing_beats_greedy_shortest(g44, ud44):
    """Weighted selection must spread load better than always taking the
    first shortest legal path (the property simple_routes exists for)."""
    from repro.routing.reference import enumerate_legal_paths

    balanced = compute_simple_routes(g44, ud44)

    def link_loads(paths):
        load = [0] * g44.num_links
        for (s, d), p in paths.items():
            for a, b in zip(p, p[1:]):
                load[g44.link_between(a, b)] += 1
        return load

    naive = {}
    for src in g44.switches():
        legal = legal_shortest_distances(g44, ud44, src)
        for dst in g44.switches():
            if src == dst:
                naive[(src, dst)] = (src,)
            else:
                naive[(src, dst)] = enumerate_legal_paths(
                    g44, ud44, src, dst, legal[dst], max_paths=1)[0]
    assert max(link_loads(balanced)) <= max(link_loads(naive))


def test_root_congestion_structure():
    """On the paper's 8x8 torus, UP/DOWN concentrates routes near the
    spanning-tree root: the most loaded link must touch the root's
    vicinity (levels 0-1 of the tree)."""
    g = build_torus(rows=8, cols=8, hosts_per_switch=1)
    ud = orient_links(g, root=0)
    routes = compute_simple_routes(g, ud)
    load = [0] * g.num_links
    for (s, d), p in routes.items():
        for a, b in zip(p, p[1:]):
            load[g.link_between(a, b)] += 1
    hottest = max(range(g.num_links), key=lambda l: load[l])
    link = g.links[hottest]
    lvl = ud.tree.level
    assert min(lvl[link.a], lvl[link.b]) <= 1


def test_length_slack_zero(g44, ud44):
    # every route is a shortest *legal* path: weights only break ties
    routes = compute_simple_routes(g44, ud44)
    for src in g44.switches():
        legal = legal_shortest_distances(g44, ud44, src)
        for dst in g44.switches():
            assert len(routes[(src, dst)]) - 1 == legal[dst]
