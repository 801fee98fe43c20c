"""MyrinetParams / SimConfig validation and defaults."""

import dataclasses

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.units import ns


class TestMyrinetParams:
    def test_paper_defaults(self):
        """The defaults are the constants of paper Sections 4.3--4.5."""
        p = PAPER_PARAMS
        assert p.flit_cycle_ps == ns(6.25)
        assert p.link_prop_ps == ns(49.2)       # 10 m at 4.92 ns/m
        assert p.routing_delay_ps == ns(150)
        assert p.slack_buffer_bytes == 80
        assert p.stop_threshold_bytes == 56
        assert p.go_threshold_bytes == 40
        assert p.itb_detect_ps == ns(275)
        assert p.itb_dma_setup_ps == ns(200)
        assert p.itb_pool_bytes == 90 * 1024
        assert p.switch_ports == 16
        assert p.max_routes_per_pair == 10

    def test_itb_detect_matches_44_bytes(self):
        """275 ns is exactly 44 bytes received at link rate."""
        p = PAPER_PARAMS
        assert p.itb_detect_ps == 44 * p.flit_cycle_ps

    def test_itb_dma_matches_32_bytes(self):
        """200 ns is exactly 32 additional bytes at link rate."""
        p = PAPER_PARAMS
        assert p.itb_dma_setup_ps == 32 * p.flit_cycle_ps

    def test_validate_accepts_defaults(self):
        PAPER_PARAMS.validate()

    def test_with_overrides(self):
        p = PAPER_PARAMS.with_overrides(routing_delay_ps=ns(100))
        assert p.routing_delay_ps == ns(100)
        assert p.flit_cycle_ps == PAPER_PARAMS.flit_cycle_ps
        assert PAPER_PARAMS.routing_delay_ps == ns(150)  # original intact

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_PARAMS.flit_cycle_ps = 1  # type: ignore[misc]

    @pytest.mark.parametrize("field,value", [
        ("flit_cycle_ps", 0),
        ("flit_cycle_ps", -1),
        ("link_prop_ps", -1),
        ("routing_delay_ps", -5),
        ("switch_ports", 1),
        ("max_routes_per_pair", 0),
    ])
    def test_validate_rejects_bad_scalars(self, field, value):
        with pytest.raises(ValueError):
            PAPER_PARAMS.with_overrides(**{field: value}).validate()

    @pytest.mark.parametrize("go,stop,slack", [
        (0, 56, 80),      # go must be positive
        (60, 56, 80),     # go > stop
        (40, 90, 80),     # stop > slack
    ])
    def test_validate_rejects_bad_flow_control(self, go, stop, slack):
        with pytest.raises(ValueError):
            PAPER_PARAMS.with_overrides(
                go_threshold_bytes=go, stop_threshold_bytes=stop,
                slack_buffer_bytes=slack).validate()

    def test_header_bytes(self):
        """One route flit per switch plus the 2-byte type field."""
        assert PAPER_PARAMS.header_bytes(0) == 2
        assert PAPER_PARAMS.header_bytes(5) == 7


class TestSimConfig:
    def test_defaults_valid(self):
        SimConfig().validate()

    def test_label(self):
        assert SimConfig(routing="updown").label() == "UP/DOWN"
        assert SimConfig(routing="itb", policy="sp").label() == "ITB-SP"
        assert SimConfig(routing="itb", policy="rr").label() == "ITB-RR"

    @pytest.mark.parametrize("kw", [
        {"injection_rate": 0.0},
        {"injection_rate": -0.1},
        {"message_bytes": 0},
        {"measure_ps": 0},
        {"warmup_ps": -1},
        {"routing": "dijkstra"},
        {"policy": "bogus"},
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw).validate()

    def test_with_overrides_returns_new(self):
        a = SimConfig()
        b = a.with_overrides(injection_rate=0.05)
        assert b.injection_rate == 0.05
        assert a.injection_rate != 0.05
