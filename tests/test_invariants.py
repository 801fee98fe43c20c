"""Runtime invariant auditor + deadlock diagnosis.

Three angles:

1. the auditor is *clean* on healthy runs -- zero violations across the
   full golden matrix (all three engines, every routing mode), audited
   at both window boundaries via ``run_simulation(check_invariants=
   True)``;
2. the auditor is not vacuous -- a deliberately corrupted counter is
   reported as a violation with a usable description;
3. a genuinely deadlocked configuration produces a
   :class:`DeadlockError` that *names its wait-for cycle* (worm pids
   and the channels they hold) instead of a bare "no progress".
"""

import pytest

from repro.config import PAPER_PARAMS, SimConfig
from repro.runner import run_simulation
from repro.routing.policies import SinglePathPolicy
from repro.routing.routes import make_route, path_hops
from repro.routing import RoutingTables, compute_tables
from repro.routing.updown import orient_links
from repro.sim.base import NetworkModel
from repro.sim.engine import DeadlockError, Simulator
from repro.sim.engines import ENGINES
from repro.sim.invariants import (InvariantViolation, audit,
                                  diagnose_stall, find_wait_cycle)
from repro.sim.network import WormholeNetwork
from repro.topology import build_torus
from repro.units import ns
from tests.conftest import BareNetwork
from tests.test_golden_values import MATRIX, _config


class TestGoldenMatrixClean:
    @pytest.mark.parametrize("label,engine,routing,policy", MATRIX,
                             ids=[m[0] for m in MATRIX])
    def test_zero_violations(self, label, engine, routing, policy):
        """Every golden-matrix point passes the full audit at the
        warmup boundary and the drained end-of-run boundary."""
        summary = run_simulation(_config(engine, routing, policy),
                                 check_invariants=True)
        assert summary.messages_delivered > 0

    def test_audited_run_is_bit_identical(self):
        """Auditing is observation only: it must not perturb a single
        timestamp of the run it watches."""
        cfg = _config("packet", "itb", "rr")
        plain = run_simulation(cfg)
        audited = run_simulation(cfg, check_invariants=True)
        assert audited.to_dict() == plain.to_dict()


class TestAuditApi:
    def _network(self):
        g = build_torus(rows=4, cols=4, hosts_per_switch=2)
        sim = Simulator()
        return WormholeNetwork(sim, g, compute_tables(g, "itb"),
                               SinglePathPolicy(), PAPER_PARAMS,
                               message_bytes=512)

    def test_fresh_network_is_clean_and_drained(self):
        report = audit(self._network(), drained=True)
        assert report.ok
        assert report.checks > 0
        report.raise_if_failed()       # no-op when clean

    def test_corrupted_pool_is_caught(self):
        net = self._network()
        net.nics[0].itb_bytes = -5     # simulated double release
        report = audit(net)
        assert not report.ok
        assert any("pool" in v or "itb" in v.lower()
                   for v in report.violations)
        with pytest.raises(InvariantViolation, match="invariant"):
            report.raise_if_failed()

    def test_corrupted_ledger_is_caught(self):
        net = self._network()
        net.delivered = 3              # delivered what was never made
        report = audit(net)
        assert not report.ok
        assert any("conservation" in v for v in report.violations)

    def test_report_serialises(self):
        d = audit(self._network()).to_dict()
        assert d["engine"] == "packet"
        assert d["violations"] == []

    @pytest.mark.parametrize("hook", ["link_flit_counts", "_audit_engine",
                                      "_audit_drained", "_stall_snapshot"])
    def test_engine_missing_a_hook_cannot_be_built(self, hook):
        """The auditor's and the diagnoser's hooks are abstract: an
        engine without one fails at construction, not mid-audit."""
        partial = type("Partial", (NetworkModel,), {
            name: vars(BareNetwork)[name]
            for name in NetworkModel.__abstractmethods__ if name != hook})
        g = build_torus(rows=2, cols=2, hosts_per_switch=1)
        with pytest.raises(TypeError, match=hook):
            partial(Simulator(), g, compute_tables(g, "itb"),
                    SinglePathPolicy(), PAPER_PARAMS)


class TestWaitCycle:
    def test_simple_cycle_found_and_canonical(self):
        # 7 -> 3 -> 9 -> 7 plus a tail 1 -> 7 feeding into it
        edges = {7: 3, 3: 9, 9: 7, 1: 7}
        assert find_wait_cycle(edges) == [3, 9, 7]

    def test_chain_without_cycle(self):
        assert find_wait_cycle({1: 2, 2: 3, 3: 4}) is None
        assert find_wait_cycle({}) is None

    def test_self_wait(self):
        assert find_wait_cycle({5: 5}) == [5]


class TestDeadlockDiagnosis:
    def test_wedged_ring_names_its_cycle(self):
        """Minimal all-clockwise routing on a ring without ITBs is the
        canonical wormhole deadlock; the watchdog must report *which*
        worms hold *which* channels in a cycle, not just that progress
        stopped."""
        ring = build_torus(rows=1, cols=4, hosts_per_switch=2)
        ud = orient_links(ring, 0)
        routes = {}
        n = ring.num_switches
        for s in range(n):
            for d in range(n):
                path = [s]
                while path[-1] != d:
                    path.append((path[-1] + 1) % n)
                routes[(s, d)] = (make_route([path_hops(ring, path)]),)
        tables = RoutingTables("itb", 0, ud, routes)
        # the static proof refuses the table the run is about to wedge on
        with pytest.raises(AssertionError,
                           match="channel dependency cycle 0->1"):
            tables.validate(ring)
        cfg = SimConfig(
            topology="torus",
            topology_kwargs={"rows": 1, "cols": 4, "hosts_per_switch": 2},
            routing="itb", traffic="uniform", injection_rate=0.5,
            warmup_ps=ns(500_000), measure_ps=ns(2_000_000), seed=3)
        with pytest.raises(DeadlockError) as excinfo:
            run_simulation(cfg, tables=tables, watchdog_ps=ns(100_000))

        diagnosis = excinfo.value.diagnosis
        assert diagnosis is not None
        cycle = diagnosis["wait_for_cycle"]
        assert cycle, "deadlock dump must name the wait-for cycle"
        # the cycle is a closed loop: each waiter blocks on the next
        holders = [entry["held_by"] for entry in cycle]
        waiters = [entry["waiter"] for entry in cycle]
        assert sorted(holders) == sorted(waiters)
        for entry in cycle:
            assert "net" in entry["waits_on"]
        # the dump also carries the raw blocked state for post-mortems
        assert diagnosis["in_flight"] > 0
        assert diagnosis["blocked_worms"]
        assert diagnosis["channel_owners"]
        # and the rendered message is human-readable on its own
        assert "wait-for cycle:" in str(excinfo.value)
        assert "deadlock diagnosis:" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ENGINES.names())
    def test_every_engine_diagnoses_a_stall(self, engine):
        """Every engine snapshots its blocked state for the watchdog:
        a fresh network is diagnosed with no wait-for cycle."""
        g = build_torus(rows=2, cols=2, hosts_per_switch=1)
        net = ENGINES.get(engine)(Simulator(), g, compute_tables(g, "itb"),
                                  SinglePathPolicy(), PAPER_PARAMS)
        diagnosis = diagnose_stall(net)
        assert diagnosis["engine"] == engine
        assert diagnosis["wait_for_cycle"] == []
