import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rrtls import (
    ExperimentSpec,
    MeasurementModel,
    ModelInvalidError,
    OrderedBasis,
    SingularModelError,
    augmented_scores,
    bias_estimate,
    gaussian_model,
    ls_full,
    ls_reduced,
    mse_theoretical_ls,
    order_by_scores,
    planted_model,
    q_objective,
    q_objective_bias_recipe,
    run,
    sample_ls,
    sample_tls,
    select_rank_ls,
    spectrum_model,
    svd,
    tls_objective,
    tls_reduced,
    tls_solve,
    trial_rng,
)
from rrtls.svdtools import check_rank

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


def test_kept_and_discarded_projections_add_up_to_the_full_one():
    # ls_reduced projects y onto the first r ordered columns and the bias
    # estimate onto the rest, so together they project onto all of them
    rng = np.random.default_rng(37)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
    y = rng.standard_normal(12)
    basis = order_by_scores(Q, y)
    full = basis.columns @ (basis.columns.T @ y)
    for r in range(1, basis.k + 1):
        both = ls_reduced(basis, y, r) + bias_estimate(basis, y, r, 0.1).b_hat
        np.testing.assert_allclose(both, full, rtol=0, atol=1e-12)


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


@settings(max_examples=200, deadline=None)
@given(
    coefficients=st.lists(st.one_of(st.just(0.0), st.floats(1e-25, 1e25)), min_size=1, max_size=8),
    sigma2=st.one_of(st.just(0.0), st.floats(1e-50, 1e50)),
    k=st.integers(-20, 20),
)
def test_select_rank_is_scale_equivariant(coefficients, sigma2, k):
    # scaling y by 2**k scales the scores, like sigma2, by 4**k exactly (the
    # magnitudes keep every intermediate a normal float), so the objective
    # scales by 4**k and the selected rank stays
    p = len(coefficients)
    U = np.eye(2 * p)[:, :p]
    y = np.array(coefficients + [0.0] * p)
    sel = select_rank_ls(order_by_scores(U, y), sigma2, p)
    scaled = select_rank_ls(order_by_scores(U, 2.0**k * y), 4.0**k * sigma2, p)
    assert np.array_equal(scaled.objective, 4.0**k * sel.objective)
    assert scaled.r_star == sel.r_star


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


_H6 = np.eye(6)[:, :3] + 0.1


def _y6(bad=None):
    y = np.arange(6.0)
    if bad is not None:
        y[2] = bad
    return y


def _basis6():
    return order_by_scores(np.eye(6)[:, :3], _y6())


_BAD_INPUTS = {
    "ls_full-nan-y": (lambda: ls_full(_H6, _y6(np.nan)), ValueError, "y must be finite"),
    "ls_full-short-y": (lambda: ls_full(_H6, _y6()[:5]), ValueError, "y has length 5, expected 6"),
    "order-nan-y": (lambda: order_by_scores(np.eye(6)[:, :3], _y6(np.nan)), ValueError,
                    "y must be finite"),
    "order-nan-U": (lambda: order_by_scores(np.full((6, 3), np.nan), _y6()), ValueError,
                    "U must be finite"),
    "order-vector-U": (lambda: order_by_scores(np.ones(6), _y6()), ValueError,
                       r"U must be a 2-D array, got shape \(6,\)"),
    # a NaN score was reported as a negative one
    "q_objective-nan-score": (lambda: q_objective([4.0, np.nan, 1.0], 0.1, 2, 1.0, "oracle"),
                              ValueError, "scores must be finite"),
    "q_objective-negative-score": (lambda: q_objective([4.0, -1.0, 1.0], 0.1, 2, 1.0, "oracle"),
                                   ValueError, "scores are squared products and must be nonnegative"),
    "ls_reduced-inf-y": (lambda: ls_reduced(order_by_scores(np.eye(6)[:, :3], _y6()), _y6(np.inf), 2),
                         ValueError, "y must be finite"),
    "bias-nan-sigma2": (lambda: bias_estimate(order_by_scores(np.eye(6)[:, :3], _y6()), _y6(), 2,
                                              sigma2=float("nan")), ValueError, "sigma2 must be finite"),
    "bias-negative-sigma2": (lambda: bias_estimate(order_by_scores(np.eye(6)[:, :3], _y6()), _y6(), 2,
                                                   sigma2=-0.1), ValueError, "sigma2 must be finite and >= 0"),
    "bias-inf-y": (lambda: bias_estimate(order_by_scores(np.eye(6)[:, :3], _y6()), _y6(-np.inf), 2,
                                         sigma2=0.1), ValueError, "y must be finite"),
    "tls_solve-nan-y": (lambda: tls_solve(_H6, _y6(np.nan)), ValueError, "y must be finite"),
    "tls_solve-inf-H_tilde": (lambda: tls_solve(np.where(_H6 > 1, np.inf, _H6), _y6()), ValueError,
                              "H_tilde must be finite"),
    "tls_objective-nan-y": (lambda: tls_objective(np.ones(3), _H6, _y6(np.nan)), ValueError,
                            "y must be finite"),
    "tls_objective-short-theta": (lambda: tls_objective(np.ones(2), _H6, _y6()), ValueError,
                                  "theta has length 2, expected 3"),
    "model-bool-sigma2": (lambda: MeasurementModel(_H6, np.ones(3), sigma2=True), ModelInvalidError,
                          "sigma2 must be finite and >= 0, got True"),
    "augmented_scores-nan-y": (lambda: augmented_scores(_basis6(), np.eye(6)[4], _y6(np.nan)),
                               ValueError, "y must be finite"),
    "augmented_scores-short-y": (lambda: augmented_scores(_basis6(), np.eye(6)[4], _y6()[:4]),
                                 ValueError, "y has length 4, expected 6"),
    "augmented_scores-nan-u_s": (lambda: augmented_scores(_basis6(), np.full(6, np.nan), _y6()),
                                 ValueError, "u_s must be finite"),
    # seeds and trial indices are never truncated: trial_rng(1.5, 0),
    # trial_rng(True, 0) and trial_rng(1, 0.9) each returned trial_rng(1, 0)'s
    # stream, gaussian_model(..., seed=3.7) seed 3's design, and a string
    # raised a raw TypeError
    "trial_rng-fraction-seed": (lambda: trial_rng(1.5, 0), ValueError,
                                r"^seed must be a non-negative integer, got 1\.5"),
    "trial_rng-bool-seed": (lambda: trial_rng(True, 0), ValueError,
                            "seed must be a non-negative integer, got True"),
    "trial_rng-fraction-trial": (lambda: trial_rng(1, 0.9), ValueError,
                                 "trial must be a non-negative integer, got 0.9"),
    "trial_rng-str-trial": (lambda: trial_rng(1, "0"), ValueError,
                            "trial must be a non-negative integer, got '0'"),
    "trial_rng-negative-trial": (lambda: trial_rng(1, -1), ValueError,
                                 "trial must be a non-negative integer, got -1"),
    "sample_ls-float-seed": (lambda: sample_ls(MeasurementModel(_H6, np.ones(3), 0.1), 3.0, 0),
                             ValueError, "seed must be a non-negative integer, got 3.0"),
    "sample_tls-bool-trial": (lambda: sample_tls(MeasurementModel(_H6, np.ones(3), 0.1), 3, False),
                              ValueError, "trial must be a non-negative integer, got False"),
    "gaussian-fraction-seed": (lambda: gaussian_model(16, 4, np.ones(4), 0.1, seed=3.7),
                               ModelInvalidError, "seed must be a non-negative integer, got 3.7"),
    "planted-str-seed": (lambda: planted_model(16, [1.0, 0.5], 0.1, seed="3"), ModelInvalidError,
                         "seed must be a non-negative integer, got '3'"),
    # a non-real noise variance and a non-integer shape raised a raw
    # TypeError (or ran with N=True as N=1)
    "model-str-sigma2": (lambda: MeasurementModel(_H6, np.ones(3), sigma2="1"), ModelInvalidError,
                         "sigma2 must be finite and >= 0, got '1'"),
    "model-none-sigma2": (lambda: MeasurementModel(_H6, np.ones(3), sigma2=None), ModelInvalidError,
                          "sigma2 must be finite and >= 0, got None"),
    "model-complex-sigma2": (lambda: MeasurementModel(_H6, np.ones(3), sigma2=1j), ModelInvalidError,
                             "sigma2 must be finite and >= 0, got 1j"),
    "model-array-sigma2": (lambda: MeasurementModel(_H6, np.ones(3), sigma2=np.array([0.5])),
                           ModelInvalidError, r"sigma2 must be finite and >= 0, got array\(\[0\.5\]\)"),
    "model-nan-theta": (lambda: MeasurementModel(_H6, [1.0, np.nan, 1.0], sigma2=0.1),
                        ModelInvalidError, "theta must be finite"),
    "gaussian-float-p": (lambda: gaussian_model(16, 4.0, np.ones(4), 0.1, seed=3), ModelInvalidError,
                         "p must be a positive integer, got 4.0"),
    "planted-fraction-N": (lambda: planted_model(16.5, [1.0, 0.5], 0.1, seed=3), ModelInvalidError,
                           "N must be a positive integer, got 16.5"),
    "spectrum-bool-N": (lambda: spectrum_model(True, [1.0], np.ones(1), 0.1, seed=3),
                        ModelInvalidError, "N must be a positive integer, got True"),
    # a NaN singular value or coefficient was reported as a non-finite H or
    # theta, which the caller never passed
    "spectrum-nan-spectrum": (lambda: spectrum_model(16, [1.0, np.nan], np.ones(2), 0.1, seed=3),
                              ModelInvalidError, "spectrum must be finite"),
    "planted-inf-coefficients": (lambda: planted_model(16, [1.0, np.inf], 0.1, seed=3),
                                 ModelInvalidError, "coefficients must be finite"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_public_ls_layer_rejects_bad_input_by_name(case):
    # unchecked, each of these returned NaN, inf or a silently coerced value,
    # or failed inside numpy without naming the argument
    call, error, message = _BAD_INPUTS[case]
    with pytest.raises(error, match=message):
        call()


_RANK_FUNCTIONS = {
    "ls_reduced": lambda basis, r: ls_reduced(basis, _y6(), r),
    "tls_reduced": lambda basis, r: tls_reduced(basis, _y6(), r),
    "bias_estimate": lambda basis, r: bias_estimate(basis, _y6(), r, sigma2=0.1),
    "check_rank": check_rank,
    "mse_theoretical_ls": lambda basis, r: mse_theoretical_ls(
        MeasurementModel(_H6, np.ones(3), sigma2=0.1), basis, r),
}


@pytest.mark.parametrize("r", [True, 1.5, 2.0, "2"], ids=["bool", "fraction", "float", "str"])
@pytest.mark.parametrize("function", sorted(_RANK_FUNCTIONS))
def test_rank_arguments_must_be_integers(function, r):
    # unchecked, r=True ran as rank 1 and a float failed inside numpy's
    # slicing; numpy integers stay valid
    call = _RANK_FUNCTIONS[function]
    with pytest.raises(ValueError, match="rank r must be a positive integer"):
        call(_basis6(), r)
    call(_basis6(), np.int64(2))


def _plain_argmin(values):
    # min returns the first smallest index, so ties go to the smaller rank
    return min(range(len(values)), key=values.__getitem__) + 1


def _risk_values(scores, sigma2):
    p = len(scores)
    return [sum(scores[r:]) + sigma2 * (2 * r - p) for r in range(1, p + 1)]


def _basis_with_scores(scores):
    p = len(scores)
    return OrderedBasis(columns=np.eye(2 * p)[:, :p], scores=scores, permutation=np.arange(p))


@st.composite
def _dyadic_ls_inputs(draw):
    # scores and sigma2 are k / 64, so every objective value is exact; some
    # scores sit exactly on the threshold 2 sigma2
    sigma2 = draw(st.integers(0, 256)) / 64
    score = st.one_of(st.integers(0, 4096).map(lambda k: k / 64), st.just(2 * sigma2))
    scores = sorted(draw(st.lists(score, min_size=1, max_size=8)), reverse=True)
    return scores, sigma2


@settings(max_examples=200, deadline=None)
@given(inputs=_dyadic_ls_inputs())
def test_select_rank_is_the_exact_argmin_on_dyadic_inputs(inputs):
    scores, sigma2 = inputs
    sel = select_rank_ls(_basis_with_scores(scores), sigma2, len(scores))
    assert sel.r_star == _plain_argmin(_risk_values(scores, sigma2))


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=1, max_size=8),
    sigma2=st.floats(0.0, 1e3, allow_subnormal=False),
)
def test_select_rank_is_the_argmin_away_from_ties(scores, sigma2):
    # objective + sigma2 p = tail_r + 2 sigma2 r sums nonnegative terms, so
    # a relative gap of 1e-9 between its two smallest values is far above
    # the rounding of either
    scores = sorted(scores, reverse=True)
    p = len(scores)
    values = _risk_values(scores, sigma2)
    if p > 1:
        lo, hi = sorted(values)[:2]
        assume(hi - lo > 1e-9 * (hi + sigma2 * p))
    assert select_rank_ls(_basis_with_scores(scores), sigma2, p).r_star == _plain_argmin(values)


_SCORES3 = [4.0, 2.0, 1.0]
_RULE_CALLS = {
    "select_rank_ls": lambda sigma2, theta_norm2: select_rank_ls(_basis6(), sigma2, 3),
    "q_objective": lambda sigma2, theta_norm2: q_objective(_SCORES3, sigma2, 2, theta_norm2, "oracle"),
    "q_objective_bias_recipe": lambda sigma2, theta_norm2: q_objective_bias_recipe(
        _SCORES3, sigma2, 2, theta_norm2),
    "bias_estimate": lambda sigma2, theta_norm2: bias_estimate(_basis6(), _y6(), 2, sigma2),
}
_RULE_ARGUMENTS = [(name, "sigma2") for name in sorted(_RULE_CALLS)] + [
    ("q_objective", "theta_norm2"), ("q_objective_bias_recipe", "theta_norm2")]


@pytest.mark.parametrize("value", [True, "1", np.array([0.5, 1.0])], ids=["bool", "str", "array"])
@pytest.mark.parametrize("function, argument", _RULE_ARGUMENTS,
                         ids=[f"{f}-{a}" for f, a in _RULE_ARGUMENTS])
def test_rank_rules_reject_a_noise_variance_or_norm_that_is_not_a_real(function, argument, value):
    # unchecked, True ran as 1.0, "1" raised TypeError from math.isfinite and
    # an array a numpy TypeError
    kwargs = {"sigma2": 0.25, "theta_norm2": 1.0, argument: value}
    with pytest.raises(ValueError, match=rf"^{argument} must be finite and >= 0"):
        _RULE_CALLS[function](**kwargs)
