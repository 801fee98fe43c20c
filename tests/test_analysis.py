"""Route-quality statistics, including the paper's in-text numbers."""

import pytest

from repro.routing.analysis import route_statistics
from repro.routing import compute_tables
from repro.topology import (build_cplant, build_irregular, build_torus,
                            build_torus_express)


@pytest.fixture(scope="module")
def g88():
    return build_torus(rows=8, cols=8, hosts_per_switch=8)


class TestTorusPaperNumbers:
    """Section 4.7.1's quantitative claims about the 8x8 torus."""

    @pytest.fixture(scope="class")
    def updown_stats(self, g88):
        return route_statistics(g88, compute_tables(g88, "updown"))

    @pytest.fixture(scope="class")
    def itb_stats(self, g88):
        return route_statistics(g88, compute_tables(g88, "itb"))

    def test_updown_80_percent_minimal(self, updown_stats):
        """Paper: '80% of the paths computed by the original Myrinet
        routing algorithm are minimal paths'."""
        assert 0.75 <= updown_stats.fraction_minimal <= 0.87

    def test_updown_avg_distance_4_57(self, updown_stats):
        """Paper: average distance 4.57 for up*/down*."""
        assert updown_stats.avg_distance_sp == pytest.approx(4.57, abs=0.08)

    def test_itb_always_minimal(self, itb_stats):
        assert itb_stats.fraction_minimal == 1.0

    def test_itb_avg_distance_4_06(self, itb_stats):
        """Paper: 4.06 with the in-transit buffer mechanism."""
        assert itb_stats.avg_distance_sp == pytest.approx(4.06, abs=0.02)
        assert itb_stats.avg_distance_rr == pytest.approx(4.06, abs=0.02)

    def test_itbs_per_message(self, itb_stats):
        """Paper: 0.43 (SP) and 0.54 (RR) in-transit buffers per message
        under uniform traffic; these route-table expectations bracket
        the same behaviour."""
        assert 0.3 <= itb_stats.avg_itbs_sp <= 0.6
        assert itb_stats.avg_itbs_rr == pytest.approx(0.54, abs=0.05)

    def test_rr_uses_more_itbs_than_minimum(self, itb_stats):
        assert itb_stats.avg_itbs_rr >= itb_stats.avg_itbs_sp - 0.05
        assert itb_stats.max_itbs >= 1


class TestExpressTorus:
    def test_94_percent_minimal(self):
        """Paper: 'the percentage of minimal paths is 94%' for UP/DOWN
        on the express torus."""
        g = build_torus_express()
        stats = route_statistics(g, compute_tables(g, "updown"))
        assert stats.fraction_minimal == pytest.approx(0.94, abs=0.02)


class TestCplant:
    def test_updown_always_minimal(self):
        """Paper: 'UP/DOWN always uses minimal paths in this
        topology' -- our CPLANT reconstruction reproduces it exactly."""
        g = build_cplant()
        stats = route_statistics(g, compute_tables(g, "updown"))
        assert stats.fraction_minimal == 1.0


class TestIrregular:
    def test_updown_detours_itb_does_not(self):
        """The network of the ``irregular`` experiment: where the
        mechanism was first proposed, up*/down* forbids many more
        minimal paths than on the regular fabrics."""
        g = build_irregular(num_switches=32, hosts_per_switch=8,
                            max_switch_links=4, seed=11)
        ud = route_statistics(g, compute_tables(g, "updown"))
        itb = route_statistics(g, compute_tables(g, "itb"))
        assert itb.fraction_minimal == 1.0
        assert ud.fraction_minimal < 0.80  # the torus figure
        assert ud.avg_distance_sp > itb.avg_distance_sp


class TestGeneralInvariants:
    def test_minimal_is_lower_bound(self, g88):
        for scheme in ("updown", "itb"):
            st = route_statistics(g88, compute_tables(g88, scheme))
            assert st.avg_distance_sp >= st.avg_minimal_distance - 1e-9
            assert st.avg_distance_rr >= st.avg_minimal_distance - 1e-9

    def test_updown_has_no_itbs(self, g88):
        st = route_statistics(g88, compute_tables(g88, "updown"))
        assert st.avg_itbs_sp == 0.0
        assert st.avg_itbs_rr == 0.0
        assert st.max_itbs == 0
        assert st.avg_alternatives == 1.0

    def test_single_switch_rejected(self):
        from repro.topology.graph import NetworkGraph
        from repro.routing.analysis import route_statistics as rs
        from repro.routing import compute_tables as ct
        g = NetworkGraph(1, 4)
        g.add_host(0)
        g.add_host(0)
        g.freeze()
        with pytest.raises(ValueError):
            rs(g, ct(g, "updown"))
