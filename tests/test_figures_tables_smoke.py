"""Smoke tests of the figure/table harness at paper-scale topologies.

These run the real 512/400-host networks, but under the tiny TEST
profile (short windows, aggressively thinned grids) so the whole module
finishes in well under a minute.  They verify structure and basic
physics, not the quantitative claims (``test_paper_claims.py`` does).
"""

import pytest

from repro.experiments.figures import render_figure, render_link_map
from repro.experiments.profiles import TEST
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.tables import render_hotspot_table


@pytest.fixture(scope="module")
def fig7a_result():
    return run_experiment("fig7a", TEST)


class TestLatencyPanel:
    def test_three_series(self, fig7a_result):
        labels = [s.label for s in fig7a_result.series]
        assert labels == ["UP/DOWN", "ITB-SP", "ITB-RR"]

    def test_every_run_delivered_messages(self, fig7a_result):
        for s in fig7a_result.series:
            for r in s.runs:
                assert r.messages_delivered > 0
                assert r.avg_latency_ns is not None

    def test_itb_uses_itbs_updown_does_not(self, fig7a_result):
        ud, sp, rr = fig7a_result.series
        assert all(r.avg_itbs_per_message == 0 for r in ud.runs)
        assert any(r.avg_itbs_per_message > 0 for r in rr.runs)

    def test_measured_throughput_keys(self, fig7a_result):
        thr = fig7a_result.measured_throughput()
        assert set(thr) == {"UP/DOWN", "ITB-SP", "ITB-RR"}
        assert all(v > 0 for v in thr.values())

    def test_render(self, fig7a_result):
        text = render_figure(fig7a_result)
        assert "fig7a" in text and "ITB-RR" in text


class TestLinkMap:
    def test_fig8_panels(self):
        panels = run_experiment("fig8", TEST)
        assert [p.fig_id for p in panels] == ["fig8a", "fig8b", "fig8c"]
        for p in panels:
            assert len(p.utilization.per_link) == 128  # torus cables
            assert all(x >= 0 for x in p.utilization.utilization)
            assert all(x <= 1.0 for x in p.utilization.utilization)
        # rendering with the torus grid works
        assert "per switch" in render_link_map(panels[0], grid=(8, 8))

    def test_fig11_panels(self):
        panels = run_experiment("fig11", TEST)
        assert len(panels) == 2
        assert panels[0].label == "UP/DOWN"
        assert panels[1].label == "ITB-RR"


class TestHotspotTable:
    def test_table1_structure(self):
        tab = run_experiment("table1", TEST)  # 1 location under the TEST profile
        assert tab.fractions == (0.05, 0.10)
        assert len(tab.locations) == 1
        avg = tab.averages()
        assert len(avg) == 6  # 2 fractions x 3 routings
        assert all(v > 0 for v in avg.values())
        factors = tab.improvement_factors()
        assert len(factors) == 4
        assert "table1" in render_hotspot_table(tab)


class TestRegistryDispatch:
    def test_run_experiment_matches_direct_call(self):
        via_registry = run_experiment("fig7a", TEST)
        direct = EXPERIMENTS.get("fig7a").fn(TEST)
        assert via_registry.measured_throughput() == \
            direct.measured_throughput()
