"""Up*/down* orientation, legality and legal-path machinery."""

import pytest

from repro.routing.reference import (enumerate_legal_paths,
                                     legal_shortest_distances)
from repro.routing.updown import UP, legal_distances_to, orient_links
from repro.topology import build_torus
from repro.topology.graph import NetworkGraph


@pytest.fixture(scope="module")
def g44():
    return build_torus(rows=4, cols=4, hosts_per_switch=1)


@pytest.fixture(scope="module")
def ud44(g44):
    return orient_links(g44, root=0)


class TestOrientation:
    def test_up_end_closer_to_root(self, g44, ud44):
        lvl = ud44.tree.level
        for link in g44.links:
            up = ud44.up_end[link.id]
            down = link.other(up)
            assert (lvl[up], up) < (lvl[down], down)

    def test_tie_broken_by_lower_id(self):
        # triangle with equal levels on 1 and 2
        g = NetworkGraph(3, 4)
        g.add_link(0, 1)
        g.add_link(0, 2)
        g.add_link(1, 2)
        g.add_host(0)
        g.freeze()
        ud = orient_links(g, root=0)
        lid = g.link_between(1, 2)
        assert ud.up_end[lid] == 1

    def test_is_up_antisymmetric(self, g44, ud44):
        for link in g44.links:
            a, b = link.endpoints()
            assert ud44.is_up(a, b, link.id) != ud44.is_up(b, a, link.id)

    def test_every_cycle_has_up_and_down(self, g44, ud44):
        """The Autonet property: each 4-cycle of the torus contains at
        least one up and one down traversal in either direction."""
        # the fundamental square 0-1-5-4-0
        cycle = [0, 1, 5, 4, 0]
        dirs = []
        for a, b in zip(cycle, cycle[1:]):
            lid = g44.link_between(a, b)
            dirs.append(ud44.is_up(a, b, lid))
        assert any(dirs) and not all(dirs)


class TestLegality:
    def test_tree_paths_legal(self, g44, ud44):
        """Walking up to the root and down to any switch is legal."""
        tree = ud44.tree
        for s in g44.switches():
            path = [s]
            while path[-1] != 0:
                path.append(tree.parent[path[-1]])
            assert ud44.path_is_legal(g44, path)
            assert ud44.path_is_legal(g44, path[::-1])

    def test_down_then_up_illegal(self, g44, ud44):
        """Find some concrete down->up sequence and assert illegality."""
        found = False
        for mid in g44.switches():
            nbs = [nb for nb, lid in g44.neighbors(mid)
                   if not ud44.is_up(nb, mid, lid)]  # nb -> mid is down
            ups = [nb for nb, lid in g44.neighbors(mid)
                   if ud44.is_up(mid, nb, lid)]      # mid -> nb is up
            for a in nbs:
                for b in ups:
                    if a != b:
                        assert not ud44.path_is_legal(g44, [a, mid, b])
                        found = True
        assert found

    def test_unlinked_pair_raises(self, g44, ud44):
        with pytest.raises(ValueError):
            ud44.path_is_legal(g44, [0, 5])  # diagonal, no cable

    def test_single_switch_legal(self, g44, ud44):
        assert ud44.path_is_legal(g44, [3])


def brute_force_legal_distance(g, ud, src, dst, max_len=6):
    """Exhaustive check over all simple paths up to max_len."""
    if src == dst:
        return 0
    best = None
    def walk(path):
        nonlocal best
        if len(path) - 1 > max_len:
            return
        if path[-1] == dst:
            if ud.path_is_legal(g, path):
                L = len(path) - 1
                best = L if best is None else min(best, L)
            return
        for nb, _ in g.neighbors(path[-1]):
            if nb not in path:
                walk(path + [nb])
    walk([src])
    return best


class TestLegalDistances:
    def test_against_brute_force(self, g44, ud44):
        for src in (0, 3, 10):
            dist = legal_shortest_distances(g44, ud44, src)
            for dst in g44.switches():
                expected = brute_force_legal_distance(g44, ud44, src, dst)
                assert dist[dst] == expected, (src, dst)

    def test_legal_never_shorter_than_minimal(self, g44, ud44):
        for src in g44.switches():
            legal = legal_shortest_distances(g44, ud44, src)
            minimal = g44.shortest_distances(src)
            for dst in g44.switches():
                assert legal[dst] >= minimal[dst]

    def test_some_pair_needs_detour_on_8x8(self):
        """On the paper's 8x8 torus up*/down* forbids all minimal paths
        for some pairs (the 4x4 is small enough to escape this; the
        paper notes the number of forbidden minimal paths grows with
        network size)."""
        g = build_torus(rows=8, cols=8, hosts_per_switch=1)
        ud = orient_links(g, root=0)
        detours = 0
        for src in g.switches():
            legal = legal_shortest_distances(g, ud, src)
            minimal = g.shortest_distances(src)
            detours += sum(1 for dst in g.switches()
                           if legal[dst] > minimal[dst])
        # 732 of 4032 ordered pairs (~18%, matching the paper's "80% of
        # paths are minimal" for UP/DOWN)
        assert detours == 732

    def test_distances_to_consistent(self, g44, ud44):
        """legal_distances_to (backward) agrees with forward BFS."""
        for dst in (0, 7, 12):
            back = legal_distances_to(g44, ud44, dst)
            for src in g44.switches():
                fwd = legal_shortest_distances(g44, ud44, src)
                assert back[src][UP] >= fwd[dst] or src == dst
                # starting fresh (phase UP) must equal the legal distance
                assert min(back[src][UP],
                           g44.num_switches * 2 + 1) == \
                    (back[src][UP])
            # forward from src equals backward phase-UP entry
            for src in g44.switches():
                fwd = legal_shortest_distances(g44, ud44, src)
                assert fwd[dst] == back[src][UP] if src != dst else True


class TestEnumerateLegalPaths:
    def test_all_results_legal_and_simple(self, g44, ud44):
        for src, dst in [(0, 15), (9, 2), (6, 6)]:
            paths = enumerate_legal_paths(g44, ud44, src, dst, max_len=5)
            assert paths
            for p in paths:
                assert p[0] == src and p[-1] == dst
                assert len(set(p)) == len(p)
                assert ud44.path_is_legal(g44, p)

    def test_respects_max_len(self, g44, ud44):
        for p in enumerate_legal_paths(g44, ud44, 0, 15, max_len=4):
            assert len(p) - 1 <= 4

    def test_respects_cap(self, g44, ud44):
        uncapped = enumerate_legal_paths(g44, ud44, 0, 15, max_len=6,
                                         max_paths=1000)
        assert len(uncapped) >= 2
        capped = enumerate_legal_paths(g44, ud44, 0, 15, max_len=6,
                                       max_paths=1)
        assert len(capped) == 1
        assert capped[0] in uncapped

    def test_finds_all_shortest_legal(self, g44, ud44):
        """With a generous cap, every shortest legal simple path found
        by brute force must be in the enumeration."""
        src, dst = 10, 3
        dist = legal_shortest_distances(g44, ud44, src)[dst]
        enum = set(enumerate_legal_paths(g44, ud44, src, dst, dist,
                                         max_paths=10_000))
        # brute force all simple paths of exactly length dist
        found = set()
        def walk(path):
            if len(path) - 1 == dist:
                if path[-1] == dst and ud44.path_is_legal(g44, path):
                    found.add(tuple(path))
                return
            for nb, _ in g44.neighbors(path[-1]):
                if nb not in path:
                    walk(path + [nb])
        walk([src])
        assert found == {p for p in enum if len(p) - 1 == dist}

    def test_zero_budget(self, g44, ud44):
        assert enumerate_legal_paths(g44, ud44, 0, 1, max_len=0) == []
        assert enumerate_legal_paths(g44, ud44, 2, 2, max_len=0) == [(2,)]
