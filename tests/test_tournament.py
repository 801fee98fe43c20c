"""Tournament smoke: small matrix, inline + orchestrated, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.profiles import TEST
from repro.experiments.tournament import (TopologySpec, default_entries,
                                          render_tournament,
                                          run_tournament)
from repro.orchestrator import CampaignError, Executor
from repro.routing.schemes import SCHEMES, Scheme, build_updown_tables

TORUS33 = TopologySpec("torus", {"rows": 3, "cols": 3,
                                 "hosts_per_switch": 2}, "torus 3x3")
IRREG = TopologySpec("irregular", {}, "irregular")


@pytest.fixture(scope="module")
def report():
    return run_tournament(default_entries(["updown", "itb", "outflank"]),
                          (TORUS33, IRREG), ("uniform",), TEST,
                          seed=1, failures=1)


class TestRunTournament:
    def test_full_cross_product_reported(self, report):
        assert len(report.cells) == 3 * 2 * 1

    def test_supported_cells_carry_all_metrics(self, report):
        c = report.cell("ITB-RR", "torus 3x3", "uniform")
        assert c.supported
        assert c.throughput > 0
        assert c.knee_offered is not None and c.knee_offered > 0
        assert c.p99_latency_ns is not None and c.p99_latency_ns > 0
        assert c.probe_rate is not None and c.probe_rate > 0
        # one link down on a 3x3 torus leaves plenty of fabric
        assert c.retention is not None and 0 < c.retention <= 1.5

    def test_default_policies_follow_multipath_flag(self, report):
        by_routing = {e.routing: e.policy for e in report.schemes}
        assert by_routing == {"updown": "sp", "itb": "rr",
                              "outflank": "rr"}

    def test_unsupported_cell_marked_not_simulated(self, report):
        c = report.cell("OFR-RR", "irregular", "uniform")
        assert not c.supported
        assert c.throughput == 0.0 and c.p99_latency_ns is None

    def test_grid_scheme_loses_retention_not_the_cell(self, report):
        # the mutated (degraded) graph has no grid geometry, so the
        # grid-bound scheme keeps its healthy metrics but reports no
        # retention instead of crashing
        c = report.cell("OFR-RR", "torus 3x3", "uniform")
        assert c.supported and c.throughput > 0
        assert c.retention is None

    def test_unknown_scheme_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown routing scheme"):
            default_entries(["updown", "teleport"])

    def test_report_renders_and_serializes(self, report):
        text = render_tournament(report)
        for needle in ("saturation throughput", "latency knee",
                       "p99 latency", "retention after 1 link",
                       "ITB-RR", "torus 3x3", "--"):
            assert needle in text
        blob = json.loads(json.dumps(report.to_dict()))
        assert len(blob["cells"]) == len(report.cells)
        assert blob["failures"] == 1

    def test_workload_specs_and_pattern_gating(self):
        """Composite 'pattern+arrival' specs run, and patterns whose
        capability declaration rejects the topology (bit-reversal on
        the 18-host torus 3x3) yield unsupported cells, not crashes."""
        rep = run_tournament(default_entries(["itb"]), (TORUS33,),
                             ("uniform+onoff", "bit-reversal"), TEST,
                             seed=1)
        bursty = rep.cell("ITB-RR", "torus 3x3", "uniform+onoff")
        assert bursty.supported and bursty.throughput > 0
        gated = rep.cell("ITB-RR", "torus 3x3", "bit-reversal")
        assert not gated.supported

    def test_bad_workload_spec_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            run_tournament(default_entries(["itb"]), (TORUS33,),
                           ("uniform+weibull",), TEST)

    def test_cell_task_is_deterministic(self):
        """A cell's tasks -- its searches, then the p99 point their
        outcome places -- give the same report inline and on workers."""
        def arena(executor):
            return run_tournament(default_entries(["updown"]), (TORUS33,),
                                  ("uniform",), TEST, seed=1, failures=1,
                                  executor=executor)
        assert json.dumps(arena(Executor(workers=2)).to_dict()) == \
            json.dumps(arena(None).to_dict())


class TestDegradedFabric:
    """Whether a scheme can route the broken fabric is its capability
    declaration's call, not a blanket ``except ValueError``."""

    MESH33 = TopologySpec("mesh", {"rows": 3, "cols": 3,
                                   "hosts_per_switch": 2}, "mesh 3x3")

    def test_declared_unsupported_prints_no_retention(self):
        rep = run_tournament(default_entries(["dor"]), (self.MESH33,),
                             ("uniform",), TEST, seed=1, failures=1)
        cell = rep.cell("DOR", "mesh 3x3", "uniform")
        assert cell.supported and cell.throughput > 0
        assert cell.degraded_throughput is None and cell.retention is None
        retention = render_tournament(rep).split("retention after")[1]
        assert "--" in retention

    def test_builder_error_on_the_broken_fabric_is_loud(self):
        """A scheme that declares it supports the degraded graph and
        then fails to build on it is a bug to surface, not a ``--``."""
        def build(g, root, max_routes_per_pair):
            if g.num_links < 18:       # a 3x3 torus with a cable down
                raise ValueError("cannot route a fabric with dead links")
            return build_updown_tables(g, root, max_routes_per_pair)
        SCHEMES.register(Scheme(
            name="brittle", description="fails on degraded fabrics",
            label=lambda policy: "BRITTLE", build=build,
            multipath=False))
        try:
            with pytest.raises(CampaignError, match="dead links"):
                run_tournament(default_entries(["brittle"]), (TORUS33,),
                               ("uniform",), TEST, seed=1, failures=1)
            healthy = run_tournament(default_entries(["brittle"]),
                                     (TORUS33,), ("uniform",), TEST, seed=1)
            assert healthy.cell("BRITTLE", "torus 3x3",
                                "uniform").throughput > 0
        finally:
            SCHEMES.unregister("brittle")


class TestTournamentCLI:
    def test_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "tournament.json"
        rc = main(["experiment", "tournament", "--profile", "test",
                   "--arg", "schemes=updown,updown-opt",
                   "--arg", "topologies=torus", "--arg", "rows=3",
                   "--arg", "cols=3", "--arg", "hosts_per_switch=2",
                   "--arg", "patterns=uniform", "--arg", "failures=0",
                   "--json", str(out), "--no-cache"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "UD-OPT" in text and "saturation throughput" in text
        blob = json.loads(out.read_text())
        assert {c["label"] for c in blob["cells"]} == {"UP/DOWN",
                                                       "UD-OPT"}

    def test_schemes_verb(self, capsys):
        assert main(["schemes"]) == 0
        text = capsys.readouterr().out
        for name in ("updown", "itb", "updown-opt", "outflank", "dor"):
            assert name in text
