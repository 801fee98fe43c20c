"""Two-regime release model of the packet engine.

Packets that fit in one 80-byte slack buffer travel in a
virtual-cut-through regime (upstream channels release as the packet
drains forward, even while its head is blocked); larger packets hold
their whole path in the classic wormhole regime.  These tests pin the
behavioural difference down directly.
"""

import pytest

from repro.config import PAPER_PARAMS
from repro.routing.policies import SinglePathPolicy
from repro.routing.routes import make_route, path_hops
from repro.routing import RoutingTables, compute_tables
from repro.sim.engine import Simulator
from repro.sim.network import WormholeNetwork
from repro.topology import build_torus

P = PAPER_PARAMS


@pytest.fixture(scope="module")
def line4():
    """1x4 ring; we route only along the line 0-1-2-3."""
    return build_torus(rows=1, cols=4, hosts_per_switch=2)


def forced_tables(g):
    """All pairs routed along ascending switch ids (line routes)."""
    ud = compute_tables(g, "updown").orientation
    routes = {}
    for s in g.switches():
        for d in g.switches():
            lo, hi = min(s, d), max(s, d)
            path = tuple(range(lo, hi + 1))
            if s > d:
                path = path[::-1]
            routes[(s, d)] = (make_route([path_hops(g, path)]),)
    return RoutingTables("updown", 0, ud, routes)


def make(g, message_bytes):
    sim = Simulator()
    net = WormholeNetwork(sim, g, forced_tables(g), SinglePathPolicy(), P,
                          message_bytes=message_bytes)
    return sim, net


def _blocked_source_can_reuse_injection(g, nbytes):
    """Send A (0 -> switch 3) which must wait behind a long blocker on
    the 2->3 channel; then send B (0 -> switch 1, clear path).  Returns
    (A, B, blocker) after the run."""
    sim, net = make(g, nbytes)
    # blocker: a long packet from switch 2's host to switch 3, sent
    # first so it owns the 2->3 channel
    blocker = net.send(g.hosts_at(2)[0], g.hosts_at(3)[0], nbytes=4_000)
    sim.run_until(200_000)  # let the blocker acquire 2->3
    a = net.send(g.hosts_at(0)[0], g.hosts_at(3)[1])
    b = None

    # B leaves the same source 100 us later toward the unblocked switch 1
    def send_b():
        nonlocal b
        b = net.send(g.hosts_at(0)[0], g.hosts_at(1)[0])
    sim.at(1_300_000, send_b)
    sim.run_until_idle()
    return a, b, blocker


def test_short_packet_releases_injection_while_blocked(line4):
    """32 B: A parks in a slack buffer, so B's injection is not delayed
    by A's blocking -- B is delivered long before A."""
    a, b, _ = _blocked_source_can_reuse_injection(line4, 32)
    assert a.delivered and b.delivered
    assert b.delivered_ps < a.delivered_ps


def test_long_packet_holds_injection_while_blocked(line4):
    """2000 B: A cannot fit in slack buffers, so it holds the whole
    path including the injection channel; B waits behind it and is
    delivered after A."""
    a, b, _ = _blocked_source_can_reuse_injection(line4, 2_000)
    assert a.delivered and b.delivered
    assert b.delivered_ps > a.delivered_ps


def test_regime_boundary_is_slack_size(line4):
    """Packets at exactly the slack size use the VCT regime; one byte
    of wire overhead above it switches to wormhole."""
    sim, net = make(line4, P.slack_buffer_bytes)
    pkt = net.send(line4.hosts_at(0)[0], line4.hosts_at(1)[0])
    # wire = 80 + 2 + 1 > 80 -> long regime even at nominal 80 B payload
    assert pkt.wire_bytes(0) > P.slack_buffer_bytes
    tiny = net.send(line4.hosts_at(0)[1],
                    line4.hosts_at(1)[1],
                    nbytes=P.slack_buffer_bytes - 4)
    assert tiny.wire_bytes(0) <= P.slack_buffer_bytes
    sim.run_until_idle()
    assert pkt.delivered and tiny.delivered


def test_zero_load_delivery_identical_between_regimes(line4):
    """At zero load the regimes must agree on delivery times (same
    wire, same path, nothing to absorb)."""
    from tests.test_network import zero_load_delivery_ps
    for nbytes in (16, 60, 100, 512):
        sim, net = make(line4, nbytes)
        pkt = net.send(line4.hosts_at(0)[0], line4.hosts_at(1)[0])
        sim.run_until_idle()
        assert pkt.delivered_ps == zero_load_delivery_ps(1, nbytes), nbytes
