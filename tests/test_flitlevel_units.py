"""Flit-level engine internals: stop&go thresholds and pump pacing.

The cross-engine tests validate behaviour end to end; these unit tests
pin the stop&go protocol itself -- the exact 56/40-byte thresholds and
the control-flit round trip -- against hand-built wire/buffer pairs.
"""

import pytest

from repro.config import PAPER_PARAMS
from repro.routing.policies import SinglePathPolicy
from repro.routing import compute_tables
from repro.sim.engine import Simulator
from repro.sim.flitlevel import FlitLevelNetwork, _RxBuffer, _TxPort, _Wire
from repro.topology import build_torus

P = PAPER_PARAMS


class _ScriptedTx(_TxPort):
    """Transmitter that always has flits of one fake packet available."""

    __slots__ = ("flits_left", "pkt")

    def __init__(self, sim, wire, params, pkt, count):
        super().__init__(sim, wire, params)
        self.pkt = pkt
        self.flits_left = count

    def _next_flit(self):
        if self.flits_left <= 0:
            return None
        self.flits_left -= 1
        first = False  # never trigger routing in these tests
        last = self.flits_left == 0
        return (self.pkt, 0, first, last)


class _FakeNet:
    """Just enough of FlitLevelNetwork's surface for an _RxBuffer."""

    def __init__(self, sim):
        self.sim = sim
        self.params = P
        self._dropped_pids = set()

    def _header_at_switch(self, buf, pkt, leg):  # pragma: no cover
        raise AssertionError("no headers expected")

    def _nic_flit_received(self, nic, flit):  # pragma: no cover
        raise AssertionError("no NIC deliveries expected")


def wire_with_buffer():
    sim = Simulator()
    w = _Wire(sim, P.link_prop_ps, "test")
    net = _FakeNet(sim)
    buf = _RxBuffer(net, w, channel_key=0, switch=0)
    return sim, w, buf


class TestStopAndGoThresholds:
    def test_stop_sent_at_threshold(self):
        """With no consumer, the sender is paused after exactly
        stop_threshold flits have been buffered (plus the control and
        data flits already in flight)."""
        sim, w, buf = wire_with_buffer()
        tx = _ScriptedTx(sim, w, P, object(), 200)
        tx.wake()
        sim.run_until_idle()
        assert tx.paused
        # occupancy: stop issued at 56; stop takes one prop to arrive,
        # during which ~prop/flit_cycle more flits were sent, plus the
        # ~8 already in flight -- all well under the 80-byte capacity
        assert P.stop_threshold_bytes <= buf.occupancy
        assert buf.occupancy <= P.slack_buffer_bytes
        assert tx.flits_left > 0  # sender genuinely stopped early

    def test_go_resumes_below_threshold(self):
        sim, w, buf = wire_with_buffer()
        pkt = object()
        tx = _ScriptedTx(sim, w, P, pkt, 200)
        tx.wake()
        sim.run_until_idle()
        assert tx.paused
        remaining_before = tx.flits_left
        # drain the buffer below the go threshold
        while buf.occupancy >= P.go_threshold_bytes:
            assert buf.pop_for(pkt) is not None
        assert buf.stopped is False  # go control flit queued
        sim.run_until_idle()         # go arrives, sender resumes...
        assert tx.flits_left < remaining_before
        # ...until the (still unconsumed) buffer fills and stops it again
        assert tx.paused
        assert buf.occupancy <= P.slack_buffer_bytes

    def test_never_overflows(self):
        """The 80-byte slack absorbs the stop round trip: 56 threshold
        + ~8 flits in flight + ~8 sent during control propagation."""
        sim, w, buf = wire_with_buffer()
        tx = _ScriptedTx(sim, w, P, object(), 500)
        tx.wake()
        sim.run_until_idle()  # _RxBuffer raises on overflow
        assert buf.occupancy <= P.slack_buffer_bytes


class TestPumpPacing:
    def test_one_flit_per_cycle(self):
        sim = Simulator()
        w = _Wire(sim, 0, "paced")
        arrivals = []

        class _Sink:
            nic = -1
            def receive(self, flit):
                arrivals.append(sim.now)
        # bypass _RxBuffer: wire.rx just logs times
        w.rx = _Sink()
        tx = _ScriptedTx(sim, w, P, object(), 10)
        tx.wake()
        sim.run_until_idle()
        assert len(arrivals) == 10
        gaps = {b - a for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {P.flit_cycle_ps}


class TestFlitNetworkConstruction:
    def test_message_size_validated(self):
        g = build_torus(rows=1, cols=4, hosts_per_switch=2)
        tables = compute_tables(g, "updown")
        with pytest.raises(ValueError):
            FlitLevelNetwork(Simulator(), g, tables, SinglePathPolicy(),
                             P, message_bytes=0)

    def test_send_to_self_rejected(self):
        g = build_torus(rows=1, cols=4, hosts_per_switch=2)
        tables = compute_tables(g, "updown")
        net = FlitLevelNetwork(Simulator(), g, tables, SinglePathPolicy(),
                               P)
        with pytest.raises(ValueError):
            net.send(1, 1)
