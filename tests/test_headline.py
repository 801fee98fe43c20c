"""The paper's headline result as an integration test.

At an offered load above UP/DOWN's saturation point on the 8x8 torus,
in-transit buffer routing must still deliver the full load -- the core
claim of the paper, checked here end-to-end at paper scale (but with a
short window, so this stays a fast test; ``test_paper_claims.py``
checks the actual factors)."""

import pytest

from repro.config import SimConfig
from repro.runner import run_simulation
from repro.units import ns

WINDOW = dict(warmup_ps=ns(60_000), measure_ps=ns(250_000))


@pytest.fixture(scope="module")
def results():
    out = {}
    for routing, policy in [("updown", "sp"), ("itb", "sp"), ("itb", "rr")]:
        cfg = SimConfig(topology="torus", routing=routing, policy=policy,
                        traffic="uniform", injection_rate=0.022, **WINDOW)
        out[cfg.label()] = run_simulation(cfg)
    return out


def test_updown_saturates_above_its_knee(results):
    assert results["UP/DOWN"].saturated


def test_itb_sustains_the_same_load(results):
    assert not results["ITB-SP"].saturated
    assert not results["ITB-RR"].saturated
    for label in ("ITB-SP", "ITB-RR"):
        assert results[label].accepted_flits_ns_switch == \
            pytest.approx(0.022, rel=0.08)


def test_itb_latency_far_below_saturated_updown(results):
    for label in ("ITB-SP", "ITB-RR"):
        assert results[label].avg_latency_ns < \
            0.6 * results["UP/DOWN"].avg_latency_ns


def test_itb_actually_used_in_transit_hosts(results):
    # paper: ~0.5 in-transit buffers per message on the torus
    for label in ("ITB-SP", "ITB-RR"):
        assert 0.3 <= results[label].avg_itbs_per_message <= 0.7


def test_itb_pool_never_overflows_at_paper_size(results):
    """90 KB per NIC is ample: the paper relies on 'a very small number
    of buffers ... required in practice'."""
    for label in ("ITB-SP", "ITB-RR"):
        assert results[label].itb_overflow_count == 0
        assert results[label].itb_peak_bytes <= 8 * 1024
