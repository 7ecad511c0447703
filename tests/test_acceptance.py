"""Acceptance gate: runs every built-in verification criterion at its stated
tolerance and prints one pass/fail line per criterion.

Criterion 5 fails by design and its test is expected to be red: the
rank-selection rule overselects with a scale-invariant probability
1 - P(chi2_1 <= 2)^2 when noise-only directions exist, so a 0.99 recovery
frequency is unattainable at p = 4 (the observed ~0.71 matches the closed
form erf(1)^2).  The criterion is asserted as stated rather than loosened.
"""

import json
import math

import numpy as np
import pytest

from rrtls import (
    SelectionComparison,
    acceptance,
    augmented_scores,
    gaussian_model,
    order_by_scores,
    q_objective,
    sample_tls,
    tls_solve,
)
from rrtls.textio import parse_csv


@pytest.fixture(scope="module")
def report():
    rep = acceptance.run_all()
    print()
    for r in rep.results:
        print(r.line())
    return rep


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(report, number):
    result = next(r for r in report.results if r.number == number)
    print(result.line())
    assert result.passed, result.line()


def test_every_criterion_reported_once(report):
    assert [r.number for r in report.results] == list(range(1, 11))


def test_rank_recovery_matches_closed_form(report):
    # the criterion-5 measurement itself must agree with the analytic law,
    # demonstrating the implementation is sound even though the stated
    # threshold is not attainable
    data = next(r for r in report.results if r.number == 5).data
    analytic = math.erf(1.0) ** 2
    assert abs(data["frequency_rank2"] - analytic) <= 0.02
    assert data["p2_variant_frequency_rank2"] >= 0.99


def _assert_witness_replays(doc):
    # the stored first moving trial, replayed from the artifact alone
    # through the per-trial pipeline, selects the stored ranks at t1 and t2
    w = doc["witness"]
    assert w["q1"] != w["q2"] and [w["t1"], w["t2"]] == doc["grid"]
    model = gaussian_model(**doc["gaussian_model"])
    assert doc["grid"] == [0.0, model.theta_norm2]
    real = sample_tls(model, doc["seed"], w["trial"])
    est = tls_solve(real.H_tilde, real.y)
    basis = order_by_scores(est.retained_columns, real.y)
    scores = augmented_scores(basis, est.discarded_column, real.y)
    for t, q in ((w["t1"], w["q1"]), (w["t2"], w["q2"])):
        values = q_objective(scores, model.sigma2, model.p, t, "oracle").values
        assert int(np.argmin(values)) + 1 == q
    assert doc["replayed_q_star"] == [w["q1"], w["q2"]]
    # the move fraction and its binomial SE follow from the stored count
    fraction = doc["moved"] / doc["completed"]
    assert doc["move_fraction"] == fraction
    assert doc["move_fraction_se"] == math.sqrt(fraction * (1 - fraction) / doc["completed"])
    assert fraction > 3 * doc["move_fraction_se"]


def test_witness_is_stored_and_machine_checkable(report):
    _assert_witness_replays(json.loads(report.artifacts["c09_norm_dependence.json"]))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_witness_replays_at_other_seeds(seed):
    # claim 2 is drawn, not constructed: at any seed the rank moves on a
    # fraction of trials well above 0, and the first mover replays
    [crit], artifacts = acceptance._criterion_9(seed)
    doc = json.loads(artifacts["c09_norm_dependence.json"])
    assert crit.passed, crit.line()
    assert doc["seed"] == seed + 9 and doc["gaussian_model"]["seed"] == seed + 109
    assert doc["completed"] + sum(doc["failures"].values()) == doc["trials"] == 10_000
    _assert_witness_replays(doc)


def _comparison(moved, witness):
    return SelectionComparison(grid=np.array([0.0, 5.3125]), q_star_freq=np.zeros((2, 4)),
                               theta_dependent=witness is not None, witness=witness,
                               moved=moved, completed=100, failures={})


def test_witness_fails_when_no_trial_moves(monkeypatch):
    monkeypatch.setattr(acceptance, "compare_selection_rules",
                        lambda spec, grid: _comparison(0, None))
    [crit], artifacts = acceptance._criterion_9(0)
    assert not crit.passed
    assert crit.observed == "rank moved on none of 100 trials"
    doc = json.loads(artifacts["c09_norm_dependence.json"])
    assert doc["witness"] is None and doc["replayed_q_star"] is None


def test_witness_fails_when_its_trial_does_not_replay(monkeypatch):
    # a stored witness whose ranks the per-trial pipeline does not select
    # fails the criterion even with a move fraction far above 3 SE
    witness = {"trial": 0, "t1": 0.0, "t2": 5.3125, "q1": 4, "q2": 3}
    monkeypatch.setattr(acceptance, "compare_selection_rules",
                        lambda spec, grid: _comparison(50, witness))
    [crit], artifacts = acceptance._criterion_9(0)
    assert not crit.passed
    doc = json.loads(artifacts["c09_norm_dependence.json"])
    assert doc["replayed_q_star"] != [4, 3] and doc["move_fraction"] == 0.5


def test_summary_files_parse(report):
    files = acceptance.summary_files(report)
    header, rows = parse_csv(files["acceptance.csv"])
    assert header == ["criterion", "name", "pass", "observed", "required"]
    assert len(rows) == 10
    doc = json.loads(files["acceptance.json"])
    assert [c["number"] for c in doc["criteria"]] == list(range(1, 11))
    assert doc["seed"] == report.seed


def test_artifacts_are_emitted(report):
    expected = {
        "c01_ls_fullrank.csv",
        "c02_chi_square.json",
        "c03_bias.json",
        "c04_dominance.csv",
        "c05_rank_recovery.json",
        "c06_tls_equivalence.json",
        "c07_tls_exactness.json",
        "c08_consistency.json",
        "c09_norm_dependence.json",
    }
    assert set(report.artifacts) == expected
