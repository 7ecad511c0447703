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

from rrtls import acceptance
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


def test_witness_is_stored_and_machine_checkable(report):
    doc = json.loads(report.artifacts["c09_norm_dependence.json"])
    assert doc["q_star_at_t1"] != doc["q_star_at_t2"]
    scores = np.asarray(doc["scores"])
    p, sigma2 = doc["p"], doc["sigma2"]
    for t_key, q_key in (("t1", "q_star_at_t1"), ("t2", "q_star_at_t2")):
        t = doc[t_key]
        values = [
            (float(np.sum(scores[q:])) + sigma2 * (1 + t) * (2 * q + p)) / (1 + t)
            for q in range(1, p + 1)
        ]
        assert int(np.argmin(values)) + 1 == doc[q_key]


def test_witness_does_not_depend_on_the_seed():
    # criterion 9 constructs its witness from the rank thresholds, drawing nothing
    assert acceptance._criterion_9(0) == acceptance._criterion_9(20260808)


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
