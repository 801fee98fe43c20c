"""Routing tables (compute_tables) and path-selection policies."""

import pytest

from repro.routing.policies import (RandomPolicy, RoundRobinPolicy,
                                    SinglePathPolicy, make_policy)
from repro.routing.routes import RouteLeg, SourceRoute
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
        """A leg whose ``links`` do not join its ``switches`` must not
        validate: builders carry link ids instead of re-probing the
        graph, so this is the check that guards them."""
        (route,) = updown44.source_routes(g44, 0, 5)
        (leg,) = route.legs
        assert len(leg.links) == 2
        swapped = SourceRoute((RouteLeg(leg.switches, leg.links[::-1]),))
        bad = RoutingTables("updown", updown44.root, updown44.orientation,
                            {**updown44.routes, (0, 5): (swapped,)})
        with pytest.raises(AssertionError, match="does not join"):
            bad.validate(g44)

    def test_unknown_scheme(self, g44):
        with pytest.raises(ValueError):
            compute_tables(g44, "adaptive")

    def test_cap_respected(self, g44):
        t = compute_tables(g44, "itb", max_routes_per_pair=3)
        assert t.max_alternatives() <= 3

    def test_alternatives_lookup(self, g44, itb44):
        alts = itb44.alternatives(0, 5)
        assert alts
        assert all(r.src == 0 and r.dst == 5
                   for r in itb44.source_routes(g44, 0, 5))

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
    return tuple(SourceRoute.single_leg(g, p) for p in paths[:n])


class TestPolicies:
    def test_sp_always_first(self, g44):
        alts = _mk_alts(g44, 3)
        p = SinglePathPolicy()
        assert all(p.select(0, 1, alts) is alts[0] for _ in range(10))

    def test_rr_cycles(self, g44):
        alts = _mk_alts(g44, 3)
        p = RoundRobinPolicy(staggered_start=False)
        picks = [p.select(4, 9, alts) for _ in range(6)]
        assert picks == [alts[0], alts[1], alts[2]] * 2

    def test_rr_independent_pairs(self, g44):
        alts = _mk_alts(g44, 3)
        p = RoundRobinPolicy(staggered_start=False)
        p.select(4, 9, alts)
        # a different pair starts its own cycle
        assert p.select(5, 9, alts) is alts[0]

    def test_rr_staggered_start_spreads(self, g44):
        """With many pairs sending one message each, the staggered RR
        must use every alternative (this is what reproduces the paper's
        0.54 ITBs/message for RR)."""
        alts = _mk_alts(g44, 3)
        assert len(alts) == 3
        p = RoundRobinPolicy()
        used = {id(p.select(s, d, alts))
                for s in range(20) for d in range(20) if s != d}
        assert len(used) == 3

    def test_rr_staggered_still_cycles(self, g44):
        alts = _mk_alts(g44, 3)
        p = RoundRobinPolicy()
        seq = [p.select(2, 3, alts) for _ in range(6)]
        idx = [alts.index(r) for r in seq]
        assert idx[3:] == idx[:3]
        assert sorted(idx[:3]) == [0, 1, 2]

    def test_random_deterministic_per_seed(self, g44):
        alts = _mk_alts(g44, 3)
        a = RandomPolicy(seed=3)
        b = RandomPolicy(seed=3)
        sa = [a.select(0, 1, alts) for _ in range(20)]
        sb = [b.select(0, 1, alts) for _ in range(20)]
        assert sa == sb

    def test_random_uses_all(self, g44):
        alts = _mk_alts(g44, 3)
        p = RandomPolicy(seed=1)
        used = {id(p.select(0, 1, alts)) for _ in range(100)}
        assert len(used) == 3

    def test_make_policy(self):
        assert make_policy("sp").name == "sp"
        assert make_policy("rr").name == "rr"
        assert make_policy("random").name == "random"
        with pytest.raises(ValueError):
            make_policy("lru")
