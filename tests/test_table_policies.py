"""Routing tables (compute_tables) and path-selection policies."""

import pytest

from repro.routing.policies import (RandomPolicy, RoundRobinPolicy,
                                    SinglePathPolicy, make_policy)
from repro.routing.routes import make_route, path_hops, route_switches
from repro.routing import RoutingTables, compute_tables
from repro.topology import build_torus


@pytest.fixture(scope="module")
def g44():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def updown44(g44):
    return compute_tables(g44, "updown")


@pytest.fixture(scope="module")
def itb44(g44):
    return compute_tables(g44, "itb")


class TestComputeTables:
    def test_updown_single_route_per_pair(self, updown44):
        assert updown44.max_alternatives() == 1

    def test_itb_multiple_alternatives(self, itb44):
        assert itb44.max_alternatives() > 1

    def test_validate_passes(self, g44, updown44, itb44):
        updown44.validate(g44)
        itb44.validate(g44)

    def test_validate_checks_links_join_switches(self, g44, updown44):
        """A leg whose hops do not chain from switch to switch must not
        validate: builders carry hops instead of re-probing the graph,
        so this is the check that guards them."""
        (route,) = updown44.routes[(0, 5)]
        (leg,) = route[2:]
        assert len(leg) == 2
        swapped = make_route([leg[::-1]])
        bad = RoutingTables("updown", updown44.root, updown44.orientation,
                            {**updown44.routes, (0, 5): (swapped,)})
        with pytest.raises(AssertionError, match="does not join"):
            bad.validate(g44)

    @pytest.mark.parametrize("fault", ["no-legs", "no-host",
                                       "host-off-the-boundary",
                                       "legs-do-not-chain", "hop-backwards",
                                       "short-route"])
    def test_validate_checks_route_structure(self, g44, updown44, fault):
        """Each structural fault of a hand-written route is refused by
        name: a route with no legs, a host count that does not match
        the legs, an in-transit host away from its leg boundary, a leg
        that does not start where the one before it ended, a hop whose
        direction bit leaves from the wrong end of its link, a walk
        that stops short of the destination."""
        legs = [path_hops(g44, (0, 1)), path_hops(g44, (1, 5))]
        via = (g44.hosts_at(1)[0],)
        route, message = {
            "no-legs": (make_route([]), "route 0->5 has no legs"),
            "no-host": (make_route(legs),
                        "2 legs need 1 in-transit hosts in route 0->5, "
                        "got 0"),
            "host-off-the-boundary": (
                make_route(legs, (g44.hosts_at(5)[0],)),
                r"in-transit host \d+ not at boundary switch of route "
                r"0->5"),
            "legs-do-not-chain": (
                make_route([legs[0], path_hops(g44, (4, 5))], via),
                "does not join switch 1"),
            "hop-backwards": (
                make_route([(legs[0][0] ^ 1, legs[1][0])]),
                r"hop \d+ crosses link \d+ toward switch 0 in route 0->5"),
            "short-route": (make_route(legs[:1]),
                            "route 0->5 ends at switch 1"),
        }[fault]
        bad = RoutingTables("updown", updown44.root, updown44.orientation,
                            {**updown44.routes, (0, 5): (route,)})
        with pytest.raises(AssertionError, match=message):
            bad.validate(g44)

    def test_unknown_scheme(self, g44):
        with pytest.raises(ValueError):
            compute_tables(g44, "adaptive")

    def test_cap_respected(self, g44):
        t = compute_tables(g44, "itb", max_routes_per_pair=3)
        assert t.max_alternatives() <= 3

    def test_alternatives_lookup(self, g44, itb44):
        alts = itb44.routes[(0, 5)]
        assert alts
        assert all(route_switches(g44, 0, r)[-1][-1] == 5 for r in alts)

    def test_root_parameter(self, g44):
        t0 = compute_tables(g44, "updown", root=0)
        t9 = compute_tables(g44, "updown", root=9)
        assert t0.orientation.tree.root == 0
        assert t9.orientation.tree.root == 9
        assert t0.routes != t9.routes


def _mk_alts(g, n):
    """Up to 3 distinct routes 0 -> 5 on the 4x4 torus (two minimal,
    one detour) -- distinguishable objects for policy tests."""
    paths = [(0, 1, 5), (0, 4, 5), (0, 3, 7, 6, 5)]
    return tuple(make_route([path_hops(g, p)]) for p in paths[:n])


class TestPolicies:
    def test_sp_always_first(self, g44):
        alts = _mk_alts(g44, 3)
        p = SinglePathPolicy()
        assert all(p.select_index(0, 1, alts) == 0 for _ in range(10))

    def test_rr_cycles(self, g44):
        alts = _mk_alts(g44, 3)
        p = RoundRobinPolicy()
        picks = [p.select_index(4, 9, alts) for _ in range(6)]
        assert picks == [(picks[0] + k) % 3 for k in range(6)]

    def test_rr_independent_pairs(self, g44):
        alts = _mk_alts(g44, 3)
        p = RoundRobinPolicy()
        p.select_index(4, 9, alts)
        # a different pair starts its own cycle, where a fresh policy
        # would start it
        assert (p.select_index(5, 9, alts)
                == RoundRobinPolicy().select_index(5, 9, alts))

    def test_rr_staggered_start_spreads(self, g44):
        """With many pairs sending one message each, the staggered RR
        must use every alternative (this is what reproduces the paper's
        0.54 ITBs/message for RR)."""
        alts = _mk_alts(g44, 3)
        assert len(alts) == 3
        p = RoundRobinPolicy()
        used = {p.select_index(s, d, alts)
                for s in range(20) for d in range(20) if s != d}
        assert used == {0, 1, 2}

    def test_rr_staggered_still_cycles(self, g44):
        alts = _mk_alts(g44, 3)
        p = RoundRobinPolicy()
        idx = [p.select_index(2, 3, alts) for _ in range(6)]
        assert idx[3:] == idx[:3]
        assert sorted(idx[:3]) == [0, 1, 2]

    def test_random_deterministic_per_seed(self, g44):
        alts = _mk_alts(g44, 3)
        a = RandomPolicy(seed=3)
        b = RandomPolicy(seed=3)
        sa = [a.select_index(0, 1, alts) for _ in range(20)]
        sb = [b.select_index(0, 1, alts) for _ in range(20)]
        assert sa == sb

    def test_random_uses_all(self, g44):
        alts = _mk_alts(g44, 3)
        p = RandomPolicy(seed=1)
        used = {p.select_index(0, 1, alts) for _ in range(100)}
        assert used == {0, 1, 2}

    def test_make_policy(self):
        assert make_policy("sp").name == "sp"
        assert make_policy("rr").name == "rr"
        assert make_policy("random").name == "random"
        with pytest.raises(ValueError):
            make_policy("lru")
