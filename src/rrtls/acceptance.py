"""Built-in verification suite: ten statistical and numerical criteria.

Each criterion pins its own model, seed offsets, trial budget and tolerance,
runs against the estimation suites through the Monte Carlo harness, and
reports one pass/fail line.  The emitted artifacts are deterministic text
(17-significant-digit floats), and the final criterion re-executes the
whole set to confirm byte-identical output.

Criterion 5 (rank-recovery frequency) is expected to FAIL and is kept that
way deliberately: with two noise-only directions the data-driven rank rule
overselects with probability 1 - P(chi2_1 <= 2)^2 ≈ 0.29 regardless of the
noise scale, so the 0.99 recovery threshold is unattainable for p = 4.  The
criterion reports the measured frequency next to the closed-form value; the
README derives the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import RrtlsError
from .harness import ExperimentSpec, run, search_norm_dependence_witness
from .ls import tail_sums
from .model import MeasurementModel, gaussian_model, planted_model, sample_tls, trial_rng
from .textio import csv_text, format_float, json_text
from .tls import tls_solve

DEFAULT_SEED = 20260808

SWEEP_HEADER = ["family", "r", "trials", "mse_emp", "mse_se", "mse_theory", "rstar_freq", "pass"]


def sweep_rows(result) -> List[list]:
    """One row per rank with the exact sweep column set."""
    rows = []
    for i, r in enumerate(result.ranks):
        rows.append(
            [
                result.family,
                int(r),
                result.completed,
                float(result.mse_emp[i]),
                float(result.mse_se[i]),
                float(result.mse_theory[i]),
                float(result.sel_freq[i]),
                bool(result.row_pass[i]),
            ]
        )
    return rows


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    observed: str
    required: str
    data: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number:02d} {self.name}: {status} "
            f"(observed {self.observed}; required {self.required})"
        )


@dataclass
class AcceptanceReport:
    seed: int
    results: List[CriterionResult]
    artifacts: Dict[str, str]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# Individual criteria
# ---------------------------------------------------------------------------

def _criteria_1_2(seed: int):
    model = gaussian_model(
        N=16, p=4, theta=[1.0, -0.5, 0.25, 2.0], sigma2=0.25, seed=seed + 101
    )
    res = run(ExperimentSpec(model=model, family="ls", trials=100_000, seed=seed + 1))
    target = model.p * model.sigma2
    mse = float(res.mse_emp[-1])
    c1 = CriterionResult(
        number=1,
        name="full-rank-mse",
        passed=abs(mse - target) <= 0.02 * target,
        observed=f"mse {format_float(mse)}",
        required=f"within 2% of {format_float(target)}",
        data={"mse_emp": mse, "mse_se": float(res.mse_se[-1]), "target": target},
    )
    # chi-square moments of |e_full|^2 / sigma2 over the same trials
    moments = res.moments
    c2 = CriterionResult(
        number=2,
        name="chi-square-moments",
        passed=moments.mean_ok and moments.var_ok,
        observed=(
            f"mean {format_float(moments.mean)}, variance {format_float(moments.variance)}"
        ),
        required=f"mean within 1% of {model.p}, variance within 5% of {2 * model.p}",
        data={
            "mean": moments.mean,
            "mean_se": moments.mean_se,
            "variance": moments.variance,
            "variance_se": moments.variance_se,
            "dof": moments.dof,
        },
    )
    art = {
        "c01_ls_fullrank.csv": csv_text(SWEEP_HEADER, sweep_rows(res)),
        "c02_chi_square.json": json_text(c2.data),
    }
    return [c1, c2], art


def _criterion_3(seed: int):
    coefficients = np.array([10.0, 7.0, 4.0, 2.0])
    sigma2 = 0.04
    model = planted_model(N=16, coefficients=coefficients, sigma2=sigma2, seed=seed + 103)
    targets = tail_sums(coefficients**2)[:3]  # oracle ordering equals coefficient order
    trials = 100_000
    res = run(ExperimentSpec(model=model, family="rrls", trials=trials, seed=seed + 3))
    # The corrected bias statistic of ls.bias_estimate at rank r is the
    # data-driven risk estimate minus its variance term sigma2 * r, so its
    # mean and standard error are the engine's risk-estimate aggregates.
    ranks = np.arange(1, 4)
    means = res.risk_estimate_mean[:3] - sigma2 * ranks
    ses = res.risk_estimate_se[:3]
    zscores = (means - targets) / ses
    passed = bool(np.all(np.abs(zscores) <= 3.0))
    data = {
        "ranks": ranks.tolist(),
        "means": means.tolist(),
        "targets": targets.tolist(),
        "standard_errors": ses.tolist(),
        "z_scores": zscores.tolist(),
        "trials": trials,
    }
    crit = CriterionResult(
        number=3,
        name="bias-estimator-unbiasedness",
        passed=passed,
        observed="z-scores " + ", ".join(format_float(z) for z in zscores),
        required="|z| <= 3 for r in {1, 2, 3}",
        data=data,
    )
    return [crit], {"c03_bias.json": json_text(data)}


def _criterion_4(seed: int):
    model = planted_model(
        N=16, coefficients=[20.0, 12.0, 0.0, 0.0], sigma2=1.0, seed=seed + 104
    )
    spec = ExperimentSpec(model=model, family="rrls", trials=100_000, seed=seed + 4)
    res = run(spec)
    mse2 = float(res.mse_emp[1])
    mse_full = float(res.mse_emp[-1])
    target = 2.0
    passed = abs(mse2 - target) <= 0.03 * target and mse2 < mse_full
    crit = CriterionResult(
        number=4,
        name="reduced-rank-dominance",
        passed=passed,
        observed=f"mse(r=2) {format_float(mse2)}, full-rank {format_float(mse_full)}",
        required="within 3% of 2.0 and strictly below the full-rank arm",
        data={"mse_r2": mse2, "mse_full": mse_full, "target": target},
    )
    return [crit], {"c04_dominance.csv": csv_text(SWEEP_HEADER, sweep_rows(res))}


def _criterion_5(seed: int):
    analytic = math.erf(1.0) ** 2
    model = planted_model(
        N=16, coefficients=[2.0, 1.0, 0.0, 0.0], sigma2=1e-6, seed=seed + 105
    )
    spec = ExperimentSpec(model=model, family="rrls", trials=10_000, seed=seed + 5)
    res = run(spec)
    freq = float(res.sel_freq[1])
    # Informational companion: with p = 2 the same planted-rank-2 recovery
    # succeeds essentially always (no noise-only direction to overselect).
    model2 = planted_model(N=16, coefficients=[2.0, 1.0], sigma2=1e-6, seed=seed + 205)
    spec2 = ExperimentSpec(model=model2, family="rrls", trials=10_000, seed=seed + 5)
    freq2 = float(run(spec2).sel_freq[1])
    data = {
        "selected_rank_frequency": {str(int(r)): float(f) for r, f in zip(res.ranks, res.sel_freq)},
        "frequency_rank2": freq,
        "analytic_frequency_rank2": analytic,
        "p2_variant_frequency_rank2": freq2,
        "trials": 10_000,
    }
    crit = CriterionResult(
        number=5,
        name="rank-recovery",
        passed=freq >= 0.99,
        observed=(
            f"frequency {format_float(freq)} at p=4 "
            f"(closed form {format_float(analytic)}; p=2 variant {format_float(freq2)})"
        ),
        required=">= 0.99 over 10^4 trials",
        data=data,
    )
    return [crit], {"c05_rank_recovery.json": json_text(data)}


def _criteria_6_7_8(seed: int):
    # 6: equivalence with the classical smallest-right-singular-vector solution
    instances = []
    rel_diffs = []
    k = 0
    failures = 0
    while len(rel_diffs) < 100 and k < 300:
        gen = trial_rng(seed + 6, k)
        k += 1
        H = gen.standard_normal((20, 5))
        theta = gen.standard_normal(5)
        model = MeasurementModel(H=H, theta=theta, sigma2=0.01)
        real = sample_tls(model, seed + 61, k)
        try:
            est = tls_solve(real.H_tilde, real.y)
        except RrtlsError:
            failures += 1
            continue
        v = est.augmented_svd.V[:, -1]
        if abs(v[-1]) <= 1e-12 * np.linalg.norm(v):
            failures += 1
            continue
        theta_classical = -v[:-1] / v[-1]
        rel_diffs.append(
            float(
                np.linalg.norm(est.theta_hat - theta_classical)
                / np.linalg.norm(theta_classical)
            )
        )
        instances.append((est, real.y))
    max_rel = max(rel_diffs) if rel_diffs else float("inf")
    c6 = CriterionResult(
        number=6,
        name="tls-equivalence",
        passed=len(rel_diffs) == 100 and max_rel <= 1e-8,
        observed=f"max relative difference {format_float(max_rel)} over {len(rel_diffs)} instances",
        required="<= 1e-08 on 100 gap-passing instances",
        data={"max_relative_difference": max_rel, "instances": len(rel_diffs), "skipped": failures},
    )

    # 7: exact recovery from noiseless realizations
    theta_errs = []
    gap_ratios = []
    for j in range(10):
        gen = trial_rng(seed + 7, j)
        H = gen.standard_normal((20, 5))
        theta = gen.standard_normal(5)
        model = MeasurementModel(H=H, theta=theta, sigma2=0.0)
        real = sample_tls(model, seed + 71, j)
        est = tls_solve(real.H_tilde, real.y)
        theta_errs.append(
            float(np.linalg.norm(est.theta_hat - theta) / np.linalg.norm(theta))
        )
        gap_ratios.append(float(est.augmented_svd.S[-1] / est.augmented_svd.S[0]))
        instances.append((est, real.y))
    c7 = CriterionResult(
        number=7,
        name="tls-exactness",
        passed=max(theta_errs) <= 1e-10 and max(gap_ratios) <= 1e-10,
        observed=(
            f"max theta error {format_float(max(theta_errs))}, "
            f"max singular-value ratio {format_float(max(gap_ratios))}"
        ),
        required="theta error <= 1e-10 and smallest/largest singular value <= 1e-10",
        data={"max_theta_error": max(theta_errs), "max_gap_ratio": max(gap_ratios)},
    )

    # 8: corrected-system consistency across every instance above
    ratios = [
        float(
            np.linalg.norm(est.H_corrected @ est.theta_hat - est.x_hat)
            / np.linalg.norm(y)
        )
        for est, y in instances
    ]
    max_ratio = max(ratios)
    c8 = CriterionResult(
        number=8,
        name="tls-consistency-identity",
        passed=max_ratio <= 1e-8,
        observed=f"max |H_corrected @ theta_hat - x_hat| / |y| = {format_float(max_ratio)}",
        required="<= 1e-08 on all valid instances",
        data={"max_ratio": max_ratio, "instances": len(instances)},
    )
    art = {
        "c06_tls_equivalence.json": json_text(c6.data),
        "c07_tls_exactness.json": json_text(c7.data),
        "c08_consistency.json": json_text(c8.data),
    }
    return [c6, c7, c8], art


def _brute_force_q_star(scores, sigma2: float, p: int, t: float) -> int:
    """Plain-Python exhaustive argmin of the rank objective (oracle for the
    vectorized implementation)."""
    best_q = None
    best_v = None
    for q in range(1, p + 1):
        tail = 0.0
        for j in range(q, p + 1):
            tail += float(scores[j])
        v = (tail + sigma2 * (1.0 + t) * (2 * q + p)) / (1.0 + t)
        if best_v is None or v < best_v:
            best_q, best_v = q, v
    return best_q


def _criterion_9(seed: int):
    # the witness is constructed, not drawn: it does not depend on the seed
    witness = search_norm_dependence_witness(p=4, sigma2=0.25, t_grid=(0.0, 1.0, 3.0, 10.0))
    q1 = _brute_force_q_star(witness.scores, witness.sigma2, witness.p, witness.t1)
    q2 = _brute_force_q_star(witness.scores, witness.sigma2, witness.p, witness.t2)
    recheck = q1 == witness.q1 and q2 == witness.q2 and q1 != q2
    data = {
        "p": witness.p,
        "sigma2": witness.sigma2,
        "scores": witness.scores.tolist(),
        "t1": witness.t1,
        "t2": witness.t2,
        "q_star_at_t1": witness.q1,
        "q_star_at_t2": witness.q2,
    }
    crit = CriterionResult(
        number=9,
        name="norm-dependent-rank-witness",
        passed=recheck,
        observed=(
            f"q*={witness.q1} at t={format_float(witness.t1)} vs "
            f"q*={witness.q2} at t={format_float(witness.t2)}"
        ),
        required="a stored instance whose selected rank differs between two norm values",
        data=data,
    )
    return [crit], {"c09_norm_dependence.json": json_text(data)}


def _run_criteria(seed: int) -> Tuple[List[CriterionResult], Dict[str, str]]:
    results: List[CriterionResult] = []
    artifacts: Dict[str, str] = {}
    for criteria in (_criteria_1_2, _criterion_3, _criterion_4, _criterion_5,
                     _criteria_6_7_8, _criterion_9):
        part, art = criteria(seed)
        results.extend(part)
        artifacts.update(art)
    return results, artifacts


def run_all(seed: int = DEFAULT_SEED) -> AcceptanceReport:
    """Run criteria 1-9, then repeat them with the same seed and confirm
    the emitted artifacts are byte-identical (criterion 10)."""
    results, artifacts = _run_criteria(seed)
    _, artifacts_again = _run_criteria(seed)
    same = set(artifacts) == set(artifacts_again) and all(
        artifacts[name] == artifacts_again[name] for name in artifacts
    )
    differing = sorted(
        name for name in set(artifacts) | set(artifacts_again)
        if artifacts.get(name) != artifacts_again.get(name)
    )
    results.append(
        CriterionResult(
            number=10,
            name="determinism",
            passed=same,
            observed=(
                "all artifacts byte-identical across two runs"
                if same
                else "differing artifacts: " + ", ".join(differing)
            ),
            required="byte-identical CSV/JSON outputs for identical seeds",
            data={"artifacts": sorted(artifacts), "identical": same},
        )
    )
    return AcceptanceReport(seed=seed, results=results, artifacts=artifacts)


def summary_files(report: AcceptanceReport) -> Dict[str, str]:
    """The acceptance summary as deterministic CSV and JSON texts."""
    header = ["criterion", "name", "pass", "observed", "required"]
    rows = [
        [r.number, r.name, r.passed, r.observed, r.required] for r in report.results
    ]
    doc = {
        "seed": report.seed,
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "pass": r.passed,
                "observed": r.observed,
                "required": r.required,
                "data": r.data,
            }
            for r in report.results
        ],
    }
    return {
        "acceptance.csv": csv_text(header, rows),
        "acceptance.json": json_text(doc),
    }
