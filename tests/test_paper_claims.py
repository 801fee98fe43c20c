"""The paper's claims, asserted at paper scale.

Every registered experiment that carries claims (Figures 7-12, Tables
1-3, the extension panels, the ablation studies and the recovery
study's zero-loss guarantee) runs once under
the bench profile -- the full 512/400-host networks, reduced windows --
and every claim must hold.  The bounds were set from the spread over
seeds 1-8 (see ``repro.experiments.figures``), so a failure here means
the model moved, not that a seed landed on the other side of a knee.
"""

import pytest

from repro.experiments import figures
from repro.experiments.profiles import BENCH, PAPER, TEST
from repro.experiments.registry import (EXPERIMENTS, render_claims,
                                        run_experiment)

CLAIMED = [exp_id for exp_id, exp in EXPERIMENTS.items()
           if exp.claims is not None]


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Replaces ``conftest``'s per-test cache reset: the experiments
    share four topologies and their routing tables, built once for the
    module (the next module's first test clears them)."""
    yield


def test_every_paper_artefact_and_study_carries_claims():
    kinds = {"latency-panel", "link-map", "hotspot-table", "point-table",
             "recovery-table"}
    assert CLAIMED == [exp_id for exp_id, exp in EXPERIMENTS.items()
                       if exp.kind in kinds]
    assert len(CLAIMED) == 23


@pytest.mark.parametrize("exp_id", CLAIMED)
def test_claims_hold(exp_id):
    exp = EXPERIMENTS.get(exp_id)
    verdicts = exp.claims(exp.fn(BENCH))
    assert verdicts
    failed = [statement for statement, ok in verdicts if not ok]
    assert not failed, "\n".join([f"{exp_id}:"] + failed)


def test_fig12_radius4_variant():
    """Section 4.2 also studies a 4-switch radius: ITB must not lose
    there either.  x1.35-2.59 over seeds 1-8 -- Figure 12a's grid is
    sized for radius 3 and UP/DOWN's knee sits on its 0.035 point."""
    statement, ok = figures.knee_claim(
        run_experiment("fig12a", BENCH, radius=4), "ITB-RR", lo=1.2)
    assert ok, statement


def test_verdicts_are_given_from_the_bench_windows_up():
    exp = EXPERIMENTS.get("route-cap")
    result = exp.fn(TEST)
    assert render_claims(exp, result, TEST) is None
    for profile in (BENCH, PAPER):
        lines = render_claims(exp, result, profile).splitlines()
        assert lines[0].startswith("-- claims (")
        assert len(lines) == 1 + len(exp.claims(result))
        assert all(line.split()[0] in ("holds", "FAILS")
                   for line in lines[1:])
    assert render_claims(EXPERIMENTS.get("adversary"), None, BENCH) is None


def test_a_violated_claim_quotes_what_was_measured():
    statement, ok = figures.ratio_claim("a", 0.02, "b", 0.016, lo=1.6)
    assert not ok
    assert statement == "a / b >= 1.6: 0.0200 / 0.0160 = x1.25"
    statement, ok = figures.bound_claim("latency", 7656.3, hi=7000)
    assert (statement, ok) == ("latency <= 7000: 7656", False)
