import math

import numpy as np
import pytest

from rrtls import (
    ExperimentSpec,
    SingularModelError,
    bias_estimate,
    ls_full,
    ls_reduced,
    mse_theoretical_ls,
    order_by_scores,
    planted_model,
    run,
    sample_ls,
    select_rank_ls,
    svd,
)

SEED = 424201


@pytest.fixture(scope="module")
def planted():
    # well separated planted energies keep the data-driven ordering fixed,
    # so the closed-form MSE / bias values apply trial for trial
    model = planted_model(
        N=16, coefficients=[10.0, 7.0, 4.0, 2.0], sigma2=0.04, seed=17
    )
    return model


@pytest.fixture(scope="module")
def planted_run(planted):
    spec = ExperimentSpec(model=planted, family="rrls", trials=100_000, seed=SEED)
    return run(spec)


def test_ls_full_identity_design():
    est = ls_full(np.eye(2), np.array([1.0, 2.0]))
    np.testing.assert_allclose(est.theta_hat, [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(est.n_hat, 0.0, atol=1e-14)
    assert est.rank_used == 2


def test_ls_full_consistent_system():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((9, 4))
    y = H @ rng.standard_normal(4)  # in the column span
    est = ls_full(H, y)
    assert np.linalg.norm(est.n_hat) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ls_full_matches_normal_equations(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    est = ls_full(H, y)
    reference = np.linalg.solve(H.T @ H, H.T @ y)  # independent dense route
    assert np.linalg.norm(est.theta_hat - reference) <= 1e-9 * np.linalg.norm(reference)
    # partition and orthogonality invariants
    assert np.linalg.norm(est.x_hat + est.n_hat - y) <= 1e-12 * np.linalg.norm(y)
    assert np.max(np.abs(H.T @ est.n_hat)) <= 1e-10


def test_ls_full_singular_design():
    H = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(SingularModelError, match="singular value"):
        ls_full(H, np.ones(5))


def test_ls_reduced_full_rank_coincides(planted):
    real = sample_ls(planted, 5, 0)
    basis = order_by_scores(svd(planted.H).U, real.y)
    est = ls_full(planted.H, real.y)
    reduced = ls_reduced(basis, real.y, planted.p)
    assert np.linalg.norm(reduced - est.x_hat) <= 1e-10 * np.linalg.norm(est.x_hat)


def test_ls_reduced_orthogonal_observation():
    U = np.eye(6)[:, :3]
    y = np.zeros(6)
    y[5] = 3.0
    basis = order_by_scores(U, y)
    assert np.array_equal(ls_reduced(basis, y, 2), np.zeros(6))


@pytest.mark.parametrize("seed", [7, 8])
def test_ls_reduced_expansion_oracle(seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    y = rng.standard_normal(10)
    basis = order_by_scores(Q, y)
    for r in range(1, 5):
        expected = np.zeros(10)
        for j in range(r):
            u = basis.columns[:, j]
            expected += (u @ y) * u
        assert np.linalg.norm(ls_reduced(basis, y, r) - expected) <= 1e-12
    with pytest.raises(ValueError):
        ls_reduced(basis, y, 0)
    with pytest.raises(ValueError):
        ls_reduced(basis, y, 5)


def test_mse_theoretical_full_rank_floor(planted):
    oracle = order_by_scores(svd(planted.H).U, planted.x)
    assert mse_theoretical_ls(planted, oracle, planted.p) == pytest.approx(
        planted.p * planted.sigma2, rel=1e-12
    )


def test_mse_theoretical_zero_noise_in_span():
    model = planted_model(N=12, coefficients=[3.0, 2.0, 0.0, 0.0], sigma2=0.0, seed=23)
    oracle = order_by_scores(svd(model.H).U, model.x)
    assert mse_theoretical_ls(model, oracle, 2) <= 1e-18


def test_mse_theoretical_matches_monte_carlo(planted, planted_run):
    # theory column of the run is built from the oracle ordering against x
    oracle = order_by_scores(svd(planted.H).U, planted.x)
    for r in range(1, planted.p + 1):
        theory = mse_theoretical_ls(planted, oracle, r)
        emp = planted_run.mse_emp[r - 1]
        assert abs(emp - theory) <= 0.02 * theory


def test_full_rank_estimator_unbiased(planted, planted_run):
    # the full-rank errors U U'y - x of the run's trials
    U = svd(planted.H).U
    Y = np.array([sample_ls(planted, SEED, t).y for t in range(planted_run.trials)])
    errors = (Y @ U) @ U.T - planted.x
    n = errors.shape[0]
    se = errors.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(errors.mean(axis=0)) <= 3.5 * se)


def test_chi_square_moments_of_full_rank_error(planted_run):
    m = planted_run.moments
    assert m is not None
    assert m.mean_ok and m.var_ok
    assert m.n == 100_000


def test_bias_estimate_full_rank_is_zero(planted):
    real = sample_ls(planted, 9, 1)
    basis = order_by_scores(svd(planted.H).U, real.y)
    b = bias_estimate(basis, real.y, planted.p, planted.sigma2)
    assert np.linalg.norm(b.b_hat) <= 1e-12
    assert abs(b.b_hat_norm2_corrected) <= 1e-12


def test_bias_estimate_zero_noise_equals_score_tail():
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    y = rng.standard_normal(10)
    basis = order_by_scores(Q, y)
    for r in (1, 2, 3):
        b = bias_estimate(basis, y, r, sigma2=0.0)
        assert b.b_hat_norm2_corrected == pytest.approx(
            float(np.sum(basis.scores[r:])), rel=1e-12
        )
        # the bias estimate lives in the span of the discarded columns
        kept = basis.columns[:, :r]
        assert np.max(np.abs(kept.T @ b.b_hat)) <= 1e-10


def test_bias_estimate_unbiased(planted):
    # corrected squared norm averages to the true discarded signal energy
    coefficients = np.array([10.0, 7.0, 4.0, 2.0])
    U = svd(planted.H).U
    trials = 20_000
    sums = np.zeros(3)
    sums_sq = np.zeros(3)
    for t in range(trials):
        real = sample_ls(planted, SEED + 1, t)
        basis = order_by_scores(U, real.y)
        for i, r in enumerate((1, 2, 3)):
            v = bias_estimate(basis, real.y, r, planted.sigma2).b_hat_norm2_corrected
            sums[i] += v
            sums_sq[i] += v * v
    means = sums / trials
    ses = np.sqrt((sums_sq / trials - means**2) / (trials - 1))
    targets = [np.sum(coefficients[r:] ** 2) for r in (1, 2, 3)]
    assert np.all(np.abs(means - targets) <= 4.0 * ses)


def test_select_rank_orthogonal_observation():
    U = np.eye(8)[:, :4]
    y = np.zeros(8)
    y[6] = 1.0
    basis = order_by_scores(U, y)
    sel = select_rank_ls(basis, sigma2=0.5, p=4)
    assert np.all(np.diff(sel.objective) > 0)
    assert sel.r_star == 1


@pytest.mark.parametrize("sigma2", [float("nan"), -0.5, float("inf")])
def test_select_rank_rejects_invalid_noise_variance(sigma2):
    # unchecked, NaN selects rank 1 and a negative value rank p
    basis = order_by_scores(np.eye(8)[:, :4], np.arange(8.0))
    with pytest.raises(ValueError, match="sigma2"):
        select_rank_ls(basis, sigma2=sigma2, p=4)


def test_select_rank_noiseless_planted_tie_break():
    U = np.eye(8)[:, :4]
    y = np.zeros(8)
    y[0], y[1] = 2.0, 1.0  # support on exactly two columns
    basis = order_by_scores(U, y)
    sel = select_rank_ls(basis, sigma2=0.0, p=4)
    assert sel.objective[0] > 0
    np.testing.assert_allclose(sel.objective[1:], 0.0, atol=1e-20)
    assert sel.r_star == 2


@pytest.mark.parametrize(
    "coefficients, r_star",
    [([2.0, 0.5, 0.5, 0.125], 1), ([2.0, 1.0, 0.5, 0.125], 2)],
    ids=["ranks-1-2-3-tie", "ranks-2-3-tie"],
)
def test_select_rank_picks_the_smallest_rank_on_exact_ties(coefficients, r_star):
    # dyadic coefficients whose squared scores equal 2 sigma2 exactly make
    # consecutive objective values tie in floating point
    U = np.eye(8)[:, :4]
    basis = order_by_scores(U, np.array(coefficients + [0.0] * 4))
    sel = select_rank_ls(basis, sigma2=0.125, p=4)
    tied = sel.objective == np.min(sel.objective)
    assert np.count_nonzero(tied) >= 2
    assert sel.r_star == int(np.argmax(tied)) + 1 == r_star


def test_select_rank_objective_recomputable(planted):
    real = sample_ls(planted, 77, 0)
    basis = order_by_scores(svd(planted.H).U, real.y)
    sel = select_rank_ls(basis, planted.sigma2, planted.p)
    for r in range(1, planted.p + 1):
        expected = float(np.sum(basis.scores[r:])) + planted.sigma2 * (2 * r - planted.p)
        assert sel.objective[r - 1] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_rank_selection_frequencies_match_closed_form():
    # planted rank 2 with two noise-only directions: the data-driven rule
    # keeps rank 2 only when both discarded scores stay below 2*sigma2, so
    # P(r*=2) = P(chi2_1 <= 2)^2, independent of the noise scale.
    model = planted_model(N=16, coefficients=[2.0, 1.0, 0.0, 0.0], sigma2=1e-6, seed=29)
    spec = ExperimentSpec(model=model, family="rrls", trials=10_000, seed=SEED + 2)
    res = run(spec)
    c = math.erf(1.0)
    expected = np.array([0.0, c * c, 2 * c * (1 - c), (1 - c) ** 2])
    se = np.sqrt(expected * (1 - expected) / 10_000)
    assert np.all(np.abs(res.sel_freq - expected) <= 4.0 * np.maximum(se, 1e-4))


def test_select_rank_argmin_matches_enumeration(planted):
    # RankSelection must attain the minimum, smallest-rank ties first
    U = svd(planted.H).U
    for t in range(30):
        real = sample_ls(planted, SEED + 9, t)
        basis = order_by_scores(U, real.y)
        sel = select_rank_ls(basis, planted.sigma2, planted.p)
        best_r, best_v = None, None
        for r in range(1, planted.p + 1):
            v = float(np.sum(basis.scores[r:])) + planted.sigma2 * (2 * r - planted.p)
            if best_v is None or v < best_v:
                best_r, best_v = r, v
        assert sel.r_star == best_r
        assert sel.objective[sel.r_star - 1] == np.min(sel.objective)


def test_risk_estimate_consistency(planted, planted_run):
    # mean of the selection objective reproduces the theoretical MSE per rank
    diff = np.abs(planted_run.risk_estimate_mean - planted_run.mse_theory)
    assert np.all(diff <= 5.0 * planted_run.risk_estimate_se)


def test_reduced_rank_dominance():
    # planted rank-2 signal with sigma2 = 1: rank-2 arm beats full rank
    model = planted_model(N=16, coefficients=[20.0, 12.0, 0.0, 0.0], sigma2=1.0, seed=41)
    # the variance-reduction condition p*sigma2 > discarded energy + r*sigma2
    assert model.p * model.sigma2 > 0.0 + 2 * model.sigma2
    spec = ExperimentSpec(model=model, family="rrls", trials=20_000, seed=SEED + 3)
    res = run(spec)
    assert abs(res.mse_emp[1] - 2.0) <= 0.03 * 2.0
    assert res.mse_emp[1] < res.mse_emp[3]


def test_tail_sums_and_risk_objective_work_row_wise():
    from rrtls.ls import risk_objective, tail_sums

    rng = np.random.default_rng(59)
    block = np.sort(rng.standard_normal((7, 5)) ** 2, axis=1)[:, ::-1]
    tails = tail_sums(block)
    objective = risk_objective(block, 0.3)
    for i, row in enumerate(block):
        assert np.array_equal(tails[i], tail_sums(row))
        np.testing.assert_allclose(tails[i], [row[j + 1:].sum() for j in range(5)], rtol=1e-14)
        assert np.array_equal(objective[i], tail_sums(row) + 0.3 * (2 * np.arange(1, 6) - 5))
    assert tail_sums(np.array([2.0])).tolist() == [0.0]
