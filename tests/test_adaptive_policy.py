"""Latency-adaptive source selection policy (extension)."""

import pytest

from repro.config import PAPER_PARAMS
from repro.routing.policies import AdaptivePolicy, make_policy
from repro.routing.routes import make_route, path_hops
from repro.sim.packet import Packet
from repro.topology import build_torus


@pytest.fixture(scope="module")
def g():
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def alts(g):
    return tuple(make_route([path_hops(g, p)])
                 for p in [(0, 1, 5), (0, 4, 5), (0, 3, 7, 6, 5)])


def deliver(policy, route, src, dst, latency_ps, alt_index=None,
            alts=None):
    """Synthesise a delivered packet over ``route`` and feed it back.

    Feedback is keyed by the alternative index the packet carries (as
    the network sets it at send time); when not given explicitly it is
    looked up in ``alts`` by identity.
    """
    if alt_index is None:
        alt_index = ([id(a) for a in alts].index(id(route))
                     if alts is not None else 0)
    pkt = Packet(0, src, dst, 512, route, created_ps=0,
                 params=PAPER_PARAMS, alt_index=alt_index)
    pkt.injected_ps = 0
    pkt.delivered_ps = latency_ps
    policy.feedback(pkt)


class TestAdaptivePolicy:
    def test_tries_every_alternative_first(self, alts):
        """Optimistic initialisation: unobserved routes are preferred."""
        p = AdaptivePolicy(seed=1, epsilon=0.0)
        seen = set()
        for _ in range(len(alts)):
            i = p.select_index(0, 10, alts)
            seen.add(i)
            deliver(p, alts[i], 0, 10, 5_000_000, alt_index=i)
        assert len(seen) == len(alts)

    def test_prefers_fastest(self, alts):
        p = AdaptivePolicy(seed=1, epsilon=0.0)
        p.register(0, 10, alts)
        # observe: alternative 1 is much faster than the others
        deliver(p, alts[0], 0, 10, 9_000_000, alt_index=0)
        deliver(p, alts[1], 0, 10, 2_000_000, alt_index=1)
        deliver(p, alts[2], 0, 10, 8_000_000, alt_index=2)
        for _ in range(5):
            assert p.select_index(0, 10, alts) == 1
            deliver(p, alts[1], 0, 10, 2_000_000, alt_index=1)

    def test_recovers_when_fast_route_degrades(self, alts):
        p = AdaptivePolicy(seed=1, epsilon=0.0, alpha=0.5)
        p.register(0, 10, alts)
        deliver(p, alts[0], 0, 10, 1_000_000, alt_index=0)
        deliver(p, alts[1], 0, 10, 5_000_000, alt_index=1)
        deliver(p, alts[2], 0, 10, 5_000_000, alt_index=2)
        assert p.select_index(0, 10, alts) == 0
        # route 0 becomes congested; its EWMA climbs past the others
        for _ in range(6):
            deliver(p, alts[0], 0, 10, 20_000_000, alt_index=0)
        assert p.select_index(0, 10, alts) != 0

    def test_epsilon_explores(self, alts):
        p = AdaptivePolicy(seed=3, epsilon=1.0)  # always explore
        p.register(0, 10, alts)
        for r in alts:
            deliver(p, r, 0, 10, 5_000_000, alts=alts)
        picks = {p.select_index(0, 10, alts) for _ in range(60)}
        assert len(picks) == len(alts)

    def test_pairs_independent(self, alts):
        p = AdaptivePolicy(seed=1, epsilon=0.0)
        p.register(0, 10, alts)
        deliver(p, alts[0], 0, 10, 1_000_000, alt_index=0)
        deliver(p, alts[1], 0, 10, 9_000_000, alt_index=1)
        deliver(p, alts[2], 0, 10, 9_000_000, alt_index=2)
        # pair (1, 10) has no observations: optimistic start, not
        # influenced by pair (0, 10)
        # deterministic first unobserved
        assert p.select_index(1, 10, alts) == 0

    def test_feedback_for_unknown_pair_ignored(self, alts):
        p = AdaptivePolicy(seed=1)
        deliver(p, alts[0], 7, 8, 1_000_000)  # never selected: no crash

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(epsilon=1.5)
        with pytest.raises(ValueError):
            AdaptivePolicy(alpha=0.0)

    def test_make_policy(self):
        assert make_policy("adaptive").name == "adaptive"

    def test_feedback_survives_table_rebuild(self, g, alts):
        """Feedback is keyed by alternative index, not route object
        identity: packets routed before a routing-table rebuild (or
        over equal-but-distinct route objects, as after
        ``clear_caches()``) still update the right estimate."""
        p = AdaptivePolicy(seed=1, epsilon=0.0)
        p.register(0, 10, alts)
        deliver(p, alts[0], 0, 10, 9_000_000, alt_index=0)
        deliver(p, alts[2], 0, 10, 9_000_000, alt_index=2)
        # rebuild: fresh route objects, same paths, new ids
        rebuilt = tuple(make_route([path_hops(g, path)])
                        for path in [(0, 1, 5), (0, 4, 5),
                                     (0, 3, 7, 6, 5)])
        assert all(a is not b for a, b in zip(alts, rebuilt))
        # a packet that selected alternative 1 pre-rebuild delivers
        # post-rebuild: its feedback must land on index 1
        deliver(p, rebuilt[1], 0, 10, 2_000_000, alt_index=1)
        assert p.select_index(0, 10, rebuilt) == 1
        assert p._ewma[(0, 10)][1] == 2_000_000

    def test_feedback_out_of_range_index_ignored(self, alts):
        """An alternative index beyond the current table (tables can
        shrink on rebuild) is dropped instead of crashing or
        misattributing."""
        p = AdaptivePolicy(seed=1, epsilon=0.0)
        p.register(0, 10, alts)
        deliver(p, alts[0], 0, 10, 1_000_000, alt_index=len(alts))
        assert p._ewma[(0, 10)] == [None] * len(alts)

    def test_deterministic_per_seed(self, alts):
        runs = []
        for _ in range(2):
            p = AdaptivePolicy(seed=9, epsilon=0.3)
            seq = []
            for k in range(20):
                i = p.select_index(0, 10, alts)
                seq.append(i)
                deliver(p, alts[i], 0, 10, 4_000_000 + k, alt_index=i)
            runs.append(seq)
        assert runs[0] == runs[1]


class TestEndToEnd:
    def test_adaptive_runs_and_learns(self):
        from tests.conftest import small_config
        from repro.runner import run_simulation
        s = run_simulation(small_config(policy="adaptive",
                                        injection_rate=0.03))
        assert s.messages_delivered > 0
        assert not s.saturated
