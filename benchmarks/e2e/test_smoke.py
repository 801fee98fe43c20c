"""Smoke test of the end-to-end benchmark (run: ``PYTHONPATH=src python
-m pytest benchmarks/e2e``).

Runs ``run.py --smoke`` once -- every workload, untraced and traced, on
4x4 grids with the ``TEST`` windows -- and asserts that the harness and
``BENCHMARK.json`` have not drifted apart: every workload ran and was
correct, and the metrics a run prints are exactly the ones the spec
declares, unit for unit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(os.path.dirname(HERE))
PHASE_KEYS = ("seq_wall_s", "warm_wall_s", "pool_wall_s", "fabric_wall_s",
              "serve_stream_total_s")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--report", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:]
    with open(path, encoding="utf-8") as fh:
        return {"stdout": proc.stdout, "runs": json.load(fh)["runs"]}


def test_every_workload_runs_both_passes(spec, smoke):
    declared = [w["name"] for w in spec["workloads"]]
    ran = [(r["workload"], r["trace"]) for r in smoke["runs"]]
    assert ran == [(w, t) for w in declared for t in (0, 1)]
    for run in smoke["runs"]:
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1


def test_metrics_match_the_spec_both_ways(spec, smoke):
    for run in smoke["runs"]:
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if run["trace"]
                                  else "end_to_end"]}
        printed = {k: m["unit"] for k, m in run["metrics"].items()}
        assert printed == declared, (run["workload"], run["trace"])
        for name, m in run["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
            # each metric is also printed by name with its unit
            assert f"{name} " in smoke["stdout"]
    assert "unavailable" not in smoke["stdout"]


def test_last_line_is_the_contract_object(spec, smoke):
    lines = [ln for ln in smoke["stdout"].splitlines() if ln.startswith("{")]
    assert len(lines) == len(smoke["runs"])
    for line in lines:
        obj = json.loads(line)
        assert sorted(obj) == ["attempted", "correct", "failed", "metrics"]
        for m in obj["metrics"].values():
            assert sorted(m) == ["unit", "value"]


def test_campaign_phases_identical_and_all_timed(smoke):
    # run_phases fails the run when any phase's results differ from
    # seq byte for byte; here: that all five phases really ran
    for run in smoke["runs"]:
        if run["workload"] == "campaign":
            for key in PHASE_KEYS:
                assert run["detail"][key] > 0, key
            assert run["detail"]["points"] == 24


def test_traced_and_untraced_simulate_the_same(smoke):
    digests = {}
    for run in smoke["runs"]:
        digests.setdefault(run["workload"], set()).add(run["sim_digest"])
    assert all(len(d) == 1 for d in digests.values()), digests


def test_compare_of_a_report_with_itself_is_ok(smoke, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"schema": 1, "runs": smoke["runs"]}))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "compare",
         str(path), str(path), "--identical"],
        stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert "RESULT: ok" in proc.stdout
