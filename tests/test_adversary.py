"""(r, b)-adversarial stability experiment: acceptance + smoke."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.adversary import (render_stability_table,
                                         run_adversary_study)
from repro.experiments.profiles import TEST
from repro.experiments.registry import run_experiment
from repro.orchestrator import Executor


@pytest.fixture(scope="module")
def report():
    return run_experiment("adversary", TEST)


class TestAdversaryStudy:
    def test_both_schemes_measured(self, report):
        assert set(report.saturation) == {"UP/DOWN", "ITB-RR"}
        for label, thr in report.saturation.items():
            assert thr > 0, label

    def test_full_fraction_grid(self, report):
        for label in report.saturation:
            fracs = [c.fraction for c in report.cells if c.label == label]
            assert fracs == list(report.fractions)

    def test_bounded_backlog_below_saturation(self, report):
        """The ISSUE's acceptance criterion: below saturation, both
        up*/down* and ITB keep the backlog bounded under the
        (r, b)-adversary at the lower operating points."""
        for label in ("UP/DOWN", "ITB-RR"):
            low = [c for c in report.cells
                   if c.label == label and c.fraction <= 0.6]
            assert low, label
            for c in low:
                assert c.stable, (label, c.fraction, c.backlog_growth)

    def test_probe_rates_scale_with_stable_rate(self, report):
        for c in report.cells:
            assert c.rate == pytest.approx(
                c.fraction * report.stable_rate[c.label])

    def test_render_and_serialize(self, report):
        text = render_stability_table(report)
        for needle in ("adversarial stability", "torus 4x4", "UP/DOWN",
                       "ITB-RR", "verdict", "stable"):
            assert needle in text
        blob = json.loads(json.dumps(report.to_dict()))
        assert len(blob["cells"]) == len(report.cells)
        assert blob["burst"] == report.burst

    def test_task_is_deterministic(self):
        """The study's tasks -- one search, then the probe points its
        outcome places -- give the same report inline and on workers."""
        def study(executor):
            return run_adversary_study(
                (("itb", "rr"),), "torus",
                {"rows": 3, "cols": 3, "hosts_per_switch": 2},
                "torus 3x3", TEST, seed=1, burst=4, start_rate=0.005,
                fractions=(0.5,), executor=executor)
        assert json.dumps(study(Executor(workers=2)).to_dict()) == \
            json.dumps(study(None).to_dict())


class TestAdversaryCLI:
    def test_experiment_verb(self, capsys):
        rc = main(["experiment", "adversary", "--profile", "test",
                   "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adversarial stability" in out
        assert "verdict" in out
