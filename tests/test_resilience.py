"""Resilience subsystem: sampling, campaign, report."""

from __future__ import annotations

import json

import pytest

from repro.config import SimConfig
from repro.experiments.profiles import TEST
from repro.experiments.runner import run_simulation
from repro.orchestrator import Executor
from repro.resilience import (render_resilience_table, run_recovery,
                              run_resilience, sample_failed_links)
from repro.sim.faults import FaultPlan
from repro.topology import build_torus
from repro.topology.mutate import without_links
from repro.topology.validate import check_topology
from tests.conftest import RecordingExecutor


@pytest.fixture(scope="module")
def torus33():
    return build_torus(rows=3, cols=3, hosts_per_switch=2)


class TestSampling:
    def test_deterministic(self, torus33):
        assert (sample_failed_links(torus33, 3, 7)
                == sample_failed_links(torus33, 3, 7))

    def test_seed_and_k_vary_the_set(self, torus33):
        sets = {sample_failed_links(torus33, 2, s) for s in range(8)}
        assert len(sets) > 1
        assert (sample_failed_links(torus33, 1, 7)
                != sample_failed_links(torus33, 3, 7))

    def test_survivors_stay_connected(self, torus33):
        for seed in range(5):
            for k in (1, 2, 4):
                failed = sample_failed_links(torus33, k, seed)
                assert len(failed) == k
                g = without_links(torus33, failed)
                assert g.is_connected()
                check_topology(g)

    def test_k_zero_and_negative(self, torus33):
        assert sample_failed_links(torus33, 0, 1) == ()
        with pytest.raises(ValueError):
            sample_failed_links(torus33, -1, 1)


class TestCellTask:
    """What a ``(k, scheme)`` cell sends the executor -- one search and
    one link-statistics point -- and what comes back."""

    @pytest.fixture(scope="class")
    def study(self):
        executor = RecordingExecutor()
        report = run_resilience(
            "torus", TEST, seed=1, ks=(1,),
            topology_kwargs={"rows": 3, "cols": 3, "hosts_per_switch": 2},
            start_rate=0.01, probe_rate=0.01, root=2, executor=executor)
        return executor, report

    def test_payload_is_json_safe(self, study):
        executor, report = study
        for kind, options in (("saturation", {"root": 2}),
                              ("point", {"collect_links": True,
                                         "root": 2})):
            payloads = executor.payloads(kind)
            assert len(payloads) == 4        # k in (0, 1) x two schemes
            for payload in payloads:
                assert json.loads(json.dumps(payload)) == payload
                assert payload["runner_kwargs"] == options
            degraded = payloads[2:]
            assert {p["config"]["topology"] for p in degraded} == \
                {"mutated"}
            assert {tuple(p["config"]["topology_kwargs"]["failed_links"])
                    for p in degraded} == {report.cells[0].failed_links}

    def test_healthy_payload_uses_base_topology(self, study):
        executor, _ = study
        for payload in executor.payloads("saturation")[:2]:
            assert payload["config"]["topology"] == "torus"
            assert payload["config"]["topology_kwargs"] == \
                {"rows": 3, "cols": 3, "hosts_per_switch": 2}

    def test_task_result_shape(self, study):
        _, report = study
        for cell in (*report.baseline.values(), *report.cells):
            assert cell.throughput > 0
            assert 0.0 <= cell.fraction_minimal <= 1.0
            assert 0.0 < cell.root_concentration <= 1.0
            assert cell.avg_itbs_per_message >= 0.0
        # UP/DOWN never uses an in-transit buffer; ITB routes are minimal
        assert report.baseline["UP/DOWN"].avg_itbs_per_message == 0.0
        assert report.baseline["ITB-RR"].fraction_minimal == 1.0


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_resilience(
            "torus", TEST, seed=1, ks=(1,),
            topology_kwargs={"rows": 3, "cols": 3,
                             "hosts_per_switch": 2},
            start_rate=0.01)

    def test_baseline_retention_is_unity(self, report):
        for cell in report.baseline.values():
            assert cell.k == 0
            assert cell.retention == 1.0
            assert cell.failed_links == ()

    def test_degraded_cells_cover_schemes(self, report):
        assert {c.label for c in report.cells} == {"UP/DOWN", "ITB-RR"}
        for cell in report.cells:
            assert cell.k == 1
            assert len(cell.failed_links) == 1
            assert cell.throughput > 0
            assert cell.retention > 0

    def test_parallel_run_matches_inline(self, report):
        ex = Executor(workers=2, store=None)
        par = run_resilience(
            "torus", TEST, seed=1, ks=(1,),
            topology_kwargs={"rows": 3, "cols": 3,
                             "hosts_per_switch": 2},
            start_rate=0.01, executor=ex)
        assert par == report

    def test_render(self, report):
        text = render_resilience_table(report)
        assert "Graceful degradation" in text
        assert "UP/DOWN" in text and "ITB-RR" in text
        assert "k=1" in text
        assert "100.0%" in text  # baseline retention


class TestRecoveryCampaign:
    """The recovery matrix is a list of plain simulation points."""

    KW = {"rows": 4, "cols": 4, "hosts_per_switch": 2}

    @pytest.fixture(scope="class")
    def report(self):
        return run_recovery("torus", TEST, seed=1, rates=(0.01,),
                            topology_kwargs=self.KW)

    def test_cells_cover_schemes_and_policies(self, report):
        assert [(c.label, c.mode) for c in report.cells] == [
            ("UP/DOWN", "blacklist"), ("UP/DOWN", "reconfigure"),
            ("ITB-RR", "blacklist"), ("ITB-RR", "reconfigure")]
        for cell in report.cells:
            assert cell.messages_delivered > 0
            if cell.mode == "reconfigure":
                assert cell.reconfigurations >= 1
                assert cell.permanent_losses == 0

    def test_cell_is_the_direct_run(self, report):
        cell = report.cells[-1]          # ITB-RR, reconfigure
        s = run_simulation(
            SimConfig(topology="torus", topology_kwargs=self.KW,
                      routing="itb", policy="rr", injection_rate=0.01,
                      warmup_ps=TEST.warmup_ps,
                      measure_ps=TEST.measure_ps, seed=1),
            fault_plan=FaultPlan.at(
                (int(report.fault_ns * 1_000), report.failed_link)),
            reliable=True, reconfig=True)
        assert cell.goodput == s.accepted_flits_ns_switch
        assert cell.time_to_recover_ns == s.time_to_recover_ns
        assert cell.retransmissions_per_message == \
            s.retransmissions / s.messages_generated

    def test_parallel_run_matches_inline(self, report):
        par = run_recovery("torus", TEST, seed=1, rates=(0.01,),
                           topology_kwargs=self.KW,
                           executor=Executor(workers=2))
        assert par == report
