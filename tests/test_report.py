"""ASCII report rendering (smoke + content checks on synthetic data)."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.experiments.figures import (FigureResult, LinkMapResult,
                                       render_figure, render_link_map)
from repro.experiments.sweep import SweepResult
from repro.experiments.tables import HotspotTable, render_hotspot_table
from repro.metrics.linkstats import LinkUtilization
from repro.metrics.summary import RunSummary


def mk_summary(rate, accepted, label_routing="updown"):
    return RunSummary(
        config=SimConfig(routing=label_routing, injection_rate=rate),
        offered_flits_ns_switch=rate, accepted_flits_ns_switch=accepted,
        messages_delivered=10, messages_generated=10,
        avg_latency_ns=5_000.0, avg_network_latency_ns=4_500.0,
        max_latency_ns=9_000.0, avg_itbs_per_message=0.4,
        itb_overflow_count=0, itb_peak_bytes=1024, link_utilization=None)


def test_render_figure_contains_series_and_paper_values():
    fig = FigureResult(
        "figX", "Synthetic panel",
        [SweepResult("UP/DOWN", [mk_summary(0.01, 0.01),
                                 mk_summary(0.02, 0.015)])],
        {"UP/DOWN": 0.015})
    text = render_figure(fig)
    assert "figX" in text and "Synthetic panel" in text
    assert "UP/DOWN" in text
    assert "(paper: 0.015)" in text
    assert "0.0150" in text


def test_render_link_map_with_grid():
    ends = [(0, 1, 0), (1, 0, 0), (2, 3, 1), (3, 2, 1)]
    util = np.array([0.5, 0.1, 0.2, 0.05])
    resv = util + 0.1
    per_link = np.array([0.5, 0.2])
    lu = LinkUtilization(1000, ends, util, resv, per_link)
    res = LinkMapResult("fig8x", "Synthetic map", "UP/DOWN", 0.015, lu,
                        mk_summary(0.015, 0.015))
    text = render_link_map(res, grid=(2, 2))
    assert "fig8x" in text
    assert "max=50.0%" in text
    assert "hottest" in text
    assert "per switch" in text


def test_link_utilization_summary_stats():
    ends = [(0, 1, 0), (1, 0, 0)]
    lu = LinkUtilization(1000, ends, np.array([0.4, 0.05]),
                         np.array([0.5, 0.06]), np.array([0.4, 0.05]))
    s = lu.summary()
    assert s["max"] == 0.4
    assert s["frac_below_10pct"] == 0.5
    assert s["frac_above_30pct"] == 0.5
    hot = lu.hottest(1)
    assert hot[0][0] == 0.4


def test_render_hotspot_table():
    tab = HotspotTable(
        "table1", "Synthetic hotspot", "torus", (0.05,), (3, 7),
        {(0.05, 3, "UP/DOWN"): 0.012, (0.05, 3, "ITB-SP"): 0.024,
         (0.05, 3, "ITB-RR"): 0.026, (0.05, 7, "UP/DOWN"): 0.014,
         (0.05, 7, "ITB-SP"): 0.028, (0.05, 7, "ITB-RR"): 0.028},
        paper_averages={0.05: (0.0125, 0.0267, 0.0274)})
    text = render_hotspot_table(tab)
    assert "table1" in text
    assert "Avg" in text
    # the paper's average row rides on the table
    assert "   paper   0.0125   0.0267   0.0274" in text
    assert "x UP/DOWN" in text
    avg = tab.averages()
    assert avg[(0.05, "UP/DOWN")] == pytest.approx(0.013)
    factors = tab.improvement_factors()
    assert factors[(0.05, "ITB-SP")] == pytest.approx(0.026 / 0.013)
