from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rrtls import (
    DegenerateSolutionError,
    ExperimentSpec,
    MeasurementModel,
    NonUniqueTlsError,
    augmented_scores,
    mse_theoretical_tls_full,
    order_by_scores,
    q_objective,
    q_objective_bias_recipe,
    run,
    sample_tls,
    tls_objective,
    tls_reduced,
    tls_solve,
)

SEED = 515151


def make_model(seed, N=16, p=4, sigma2=0.01, theta_norm=1.0):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((N, p))
    theta = rng.standard_normal(p)
    theta *= np.sqrt(theta_norm / (theta @ theta))
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_noiseless_recovery_is_exact(seed):
    model = make_model(seed, sigma2=0.0)
    real = sample_tls(model, SEED, seed)
    est = tls_solve(real.H_tilde, real.y)
    err = np.linalg.norm(est.theta_hat - model.theta) / np.linalg.norm(model.theta)
    assert err <= 1e-10
    assert est.augmented_svd.S[-1] <= 1e-10 * est.augmented_svd.S[0]


def test_scalar_orthogonal_regression_closed_form():
    # p = 1, N = 2: the 2x2 Gram matrix of A = [h_col, y] diagonalizes by hand
    h, y1, y2 = 2.0, 3.0, 1.0
    H_tilde = np.array([[h], [0.0]])
    y = np.array([y1, y2])
    G = np.array([[h * h, h * y1], [h * y1, y1 * y1 + y2 * y2]])
    tr, det = G[0, 0] + G[1, 1], G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    lam_small = (tr - np.sqrt(tr * tr - 4.0 * det)) / 2.0
    v = np.array([G[0, 1], -(G[0, 0] - lam_small)])  # (G - lam I) v = 0
    theta_oracle = -v[0] / v[1]
    est = tls_solve(H_tilde, y)
    assert est.theta_hat[0] == pytest.approx(theta_oracle, rel=1e-12)


@pytest.mark.parametrize("block", [0, 1, 2, 3])
def test_matches_classical_right_singular_vector_solution(block):
    # 25 instances per block, 100 total; the classical solution is computed
    # with numpy's raw SVD, independent of the package's factorization
    count = 0
    k = block * 1000
    while count < 25:
        rng = np.random.default_rng(10_000 + k)
        k += 1
        H_tilde = rng.standard_normal((20, 5))
        y = H_tilde @ rng.standard_normal(5) + 0.3 * rng.standard_normal(20)
        try:
            est = tls_solve(H_tilde, y)
        except (NonUniqueTlsError, DegenerateSolutionError):
            continue
        count += 1
        _, _, Vt = np.linalg.svd(np.hstack([H_tilde, y[:, None]]), full_matrices=False)
        v = Vt[-1]
        assert abs(v[-1]) > 1e-12
        classical = -v[:-1] / v[-1]
        rel = np.linalg.norm(est.theta_hat - classical) / np.linalg.norm(classical)
        assert rel <= 1e-8
        # the classical solution also certifies the normalized-residual minimum
        assert tls_objective(est.theta_hat, H_tilde, y) <= (
            tls_objective(classical, H_tilde, y) + 1e-12
        )


def test_partition_and_consistency_invariants():
    model = make_model(9, sigma2=0.04)
    real = sample_tls(model, SEED + 1, 0)
    est = tls_solve(real.H_tilde, real.y)
    y = real.y
    assert np.linalg.norm(est.x_hat + est.n_hat - y) <= 1e-12 * np.linalg.norm(y)
    assert (
        np.linalg.norm(est.H_corrected @ est.theta_hat - est.x_hat)
        <= 1e-8 * np.linalg.norm(y)
    )
    Us = est.retained_columns
    P = Us @ Us.T
    assert np.linalg.norm(P @ P - P) <= 1e-10
    # the corrected augmented system has numerical rank at most p
    svals = np.linalg.svd(np.column_stack([est.H_corrected, est.x_hat]), compute_uv=False)
    assert svals[-1] <= 1e-8 * svals[0]


def test_nonunique_gap_raises():
    H_tilde = np.zeros((4, 2))
    H_tilde[0, 0] = 2.0
    H_tilde[1, 1] = 1.0
    y = np.zeros(4)
    y[2] = 1.0  # singular values of [H y] are (2, 1, 1): no unique smallest
    with pytest.raises(NonUniqueTlsError, match="gap"):
        tls_solve(H_tilde, y)


def test_degenerate_corrected_system_raises():
    H_tilde = np.zeros((3, 2))
    H_tilde[0, 0] = 1.0  # second column identically zero
    y = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DegenerateSolutionError, match="rank deficient"):
        tls_solve(H_tilde, y)


def test_shape_preconditions():
    with pytest.raises(ValueError, match="N >= p"):
        tls_solve(np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="mismatch"):
        tls_solve(np.ones((5, 2)), np.ones(4))


def test_tls_objective_values():
    rng = np.random.default_rng(12)
    H_tilde = rng.standard_normal((7, 3))
    y = rng.standard_normal(7)
    assert tls_objective(np.zeros(3), H_tilde, y) == pytest.approx(float(y @ y), rel=1e-14)
    theta = rng.standard_normal(3)
    exact = H_tilde @ theta
    assert tls_objective(theta, H_tilde, exact) == pytest.approx(0.0, abs=1e-20)


def test_tls_solution_is_local_minimum():
    model = make_model(21, sigma2=0.09)
    real = sample_tls(model, SEED + 2, 0)
    est = tls_solve(real.H_tilde, real.y)
    base = tls_objective(est.theta_hat, real.H_tilde, real.y)
    rng = np.random.default_rng(77)
    for scale in (1e-3, 1e-1):
        deltas = scale * rng.standard_normal((500, model.p))
        for delta in deltas:
            perturbed = tls_objective(est.theta_hat + delta, real.H_tilde, real.y)
            assert perturbed >= base - 1e-12


def test_tls_reduced_full_set_coincides():
    model = make_model(30, sigma2=0.04)
    real = sample_tls(model, SEED + 3, 0)
    est = tls_solve(real.H_tilde, real.y)
    basis = order_by_scores(est.retained_columns, real.y)
    reduced = tls_reduced(basis, real.y, model.p)
    assert np.linalg.norm(reduced - est.x_hat) <= 1e-10 * np.linalg.norm(est.x_hat)


def test_tls_reduced_orthogonal_and_expansion():
    rng = np.random.default_rng(33)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
    y_orth = np.zeros(9)
    y_orth[8] = 1.0
    y_orth -= Q @ (Q.T @ y_orth)  # force exact orthogonality
    basis = order_by_scores(Q, y_orth)
    assert np.linalg.norm(tls_reduced(basis, y_orth, 2)) <= 1e-12
    y = rng.standard_normal(9)
    basis = order_by_scores(Q, y)
    for q in range(1, 4):
        expected = np.zeros(9)
        for j in range(q):
            u = basis.columns[:, j]
            expected += (u @ y) * u
        assert np.linalg.norm(tls_reduced(basis, y, q) - expected) <= 1e-12


def test_mse_formula_trivial_cases():
    rng = np.random.default_rng(49)
    model_zero = MeasurementModel(
        H=rng.standard_normal((6, 3)), theta=np.zeros(3), sigma2=0.25
    )
    real = sample_tls(model_zero, 1, 0)
    est = tls_solve(real.H_tilde, real.y)
    # theta = 0 wipes the matrix-mismatch term: the descriptor is sigma2 * p
    assert mse_theoretical_tls_full(model_zero, est) == pytest.approx(
        0.25 * 3, rel=1e-12
    )
    model_exact = make_model(50, sigma2=0.0)
    real = sample_tls(model_exact, 2, 0)
    est = tls_solve(real.H_tilde, real.y)
    assert mse_theoretical_tls_full(model_exact, est) <= 1e-20


def test_mse_formula_tracks_monte_carlo_to_leading_order():
    # The formula treats the realized corrected matrix as fixed, so it
    # overshoots the true MSE by a model-dependent O(1) factor; both sides
    # scale with sigma2 and the measured ratio stays in a narrow band.
    model_small = make_model(11, sigma2=1e-4)   # sigma = 0.01
    res_small = run(
        ExperimentSpec(model=model_small, family="tls", trials=100_000, seed=SEED + 4)
    )
    ratio_small = res_small.tls_full_formula_mean / res_small.mse_emp[-1]
    assert res_small.failures == {}
    assert 1.0 <= ratio_small <= 1.45

    model_large = make_model(11, sigma2=1e-2)   # sigma = 0.1
    res_large = run(
        ExperimentSpec(model=model_large, family="tls", trials=20_000, seed=SEED + 4)
    )
    ratio_large = res_large.tls_full_formula_mean / res_large.mse_emp[-1]
    assert 1.0 <= ratio_large <= 1.45
    assert abs(ratio_small - ratio_large) <= 0.1
    # both sides scale as sigma2 (factor 100 between the two runs)
    assert abs(res_large.mse_emp[-1] / res_small.mse_emp[-1] - 100.0) <= 15.0


def test_conditional_mse_identity_two_routes():
    # score-sum form against the projector form, on realized factors
    model = make_model(61, sigma2=0.04)
    real = sample_tls(model, SEED + 5, 0)
    est = tls_solve(real.H_tilde, real.y)
    basis = order_by_scores(est.retained_columns, real.y)
    x = model.x
    d_aug = np.append(basis.columns.T @ x, est.discarded_column @ x)
    UA = est.augmented_svd.U
    for q in range(1, model.p + 1):
        score_form = float(np.sum(d_aug[q:] ** 2)) + q * model.sigma2
        Uq = basis.columns[:, :q]
        proj_form = (
            float(x @ (UA @ (UA.T @ x)) - x @ (Uq @ (Uq.T @ x))) + q * model.sigma2
        )
        assert abs(score_form - proj_form) <= 1e-10


def test_q_objective_zero_parameter_reduction():
    scores = np.array([5.0, 3.0, 1.0, 0.5, 0.25])
    p = 4
    qobj = q_objective(scores, sigma2=0.1, p=p, theta_norm2=0.0, mode="oracle")
    for q in range(1, p + 1):
        expected = float(np.sum(scores[q:])) + 0.1 * (2 * q + p)
        assert qobj.values[q - 1] == pytest.approx(expected, rel=1e-14)


def test_q_objective_zero_scores():
    p = 4
    qobj = q_objective(np.zeros(p + 1), sigma2=0.3, p=p, theta_norm2=2.0, mode="oracle")
    assert np.all(np.diff(qobj.values) > 0)
    assert qobj.q_star == 1


def test_q_objective_brute_force_oracle():
    rng = np.random.default_rng(71)
    p = 5
    for _ in range(20):
        scores = np.sort(rng.uniform(0.0, 10.0, p + 1))[::-1]
        sigma2 = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(0.0, 8.0))
        qobj = q_objective(scores, sigma2, p, t, "oracle")
        best_q, best_v = None, None
        for q in range(1, p + 1):
            v = (sum(scores[q:]) + sigma2 * (1.0 + t) * (2 * q + p)) / (1.0 + t)
            if best_v is None or v < best_v:
                best_q, best_v = q, v
        assert qobj.q_star == best_q
        assert qobj.values[best_q - 1] == pytest.approx(best_v, rel=1e-12)


def test_q_objective_norm_dependent_instance():
    # hand-built witness: the selected rank moves when the norm grows
    sigma2 = 1.0
    scores = np.array([8.0, 4.0, 0.0])
    low = q_objective(scores, sigma2, p=2, theta_norm2=0.0, mode="oracle")
    high = q_objective(scores, sigma2, p=2, theta_norm2=3.0, mode="oracle")
    assert low.q_star == 2
    assert high.q_star == 1


def test_q_objective_input_errors():
    with pytest.raises(ValueError, match="theta_norm2"):
        q_objective(np.zeros(5), 0.1, 4, -1.0, "oracle")
    with pytest.raises(ValueError, match="scores"):
        q_objective(np.zeros(4), 0.1, 4, 1.0, "oracle")
    with pytest.raises(ValueError, match="mode"):
        q_objective(np.zeros(5), 0.1, 4, 1.0, "exact")
    with pytest.raises(ValueError, match="nonincreasing"):
        q_objective(np.array([1.0, 2.0, 0.5, 0.1, 0.0]), 0.1, 4, 1.0, "oracle")


@pytest.mark.parametrize(
    "sigma2, theta_norm2, scores",
    [
        (float("nan"), 1.0, [4.0, 2.0, 1.0]),
        (-0.1, 1.0, [4.0, 2.0, 1.0]),
        (float("inf"), 1.0, [4.0, 2.0, 1.0]),
        (0.1, float("nan"), [4.0, 2.0, 1.0]),
        (0.1, -1.0, [4.0, 2.0, 1.0]),
        (0.1, 1.0, [4.0, 2.0, -1.0]),
        (0.1, 1.0, [4.0, float("nan"), 1.0]),
        (0.1, 1.0, [1.0, 2.0, 0.5]),
    ],
    ids=["sigma2-nan", "sigma2-negative", "sigma2-inf", "norm-nan", "norm-negative",
         "score-negative", "score-nan", "scores-unordered"],
)
def test_q_rules_reject_invalid_inputs(sigma2, theta_norm2, scores):
    # unchecked, these give NaN objective values or a silently chosen rank;
    # both rules check their scores in one place, unordered ones included
    with pytest.raises(ValueError):
        q_objective(np.array(scores), sigma2, 2, theta_norm2, "oracle")
    with pytest.raises(ValueError):
        q_objective_bias_recipe(np.array(scores), sigma2, 2, theta_norm2)


@pytest.mark.parametrize("p", [0, -1, True, 2.5], ids=["zero", "negative", "bool", "float"])
def test_q_rules_reject_a_rank_count_that_is_not_a_positive_integer(p):
    # unchecked, p=0 fails inside numpy's argmin, p=-1 reports "p + 1 = 0
    # scores" and p=True runs as p=1
    with pytest.raises(ValueError, match="p must be a positive integer"):
        q_objective([1.0, 1.0], 0.1, p, 1.0, "oracle")
    with pytest.raises(ValueError, match="p must be a positive integer"):
        q_objective_bias_recipe([1.0, 1.0], 0.1, p, 1.0)


def test_q_objective_bound_mode_matches_oracle_formula():
    scores = np.array([6.0, 2.0, 1.0, 0.5, 0.1])
    a = q_objective(scores, 0.2, 4, 1.5, "oracle")
    b = q_objective(scores, 0.2, 4, 1.5, "bound")
    assert np.array_equal(a.values, b.values)
    assert a.q_star == b.q_star
    assert b.mode == "bound"


def test_monotone_tail_without_noise():
    rng = np.random.default_rng(83)
    for _ in range(10):
        scores = np.sort(rng.uniform(0.0, 5.0, 6))[::-1]
        qobj = q_objective(scores, sigma2=0.0, p=5, theta_norm2=rng.uniform(0, 4), mode="oracle")
        assert np.all(np.diff(qobj.values) <= 1e-15)


def test_bias_recipe_variant_formula():
    scores = np.array([6.0, 2.0, 1.0, 0.5, 0.1])
    p, sigma2, t = 4, 0.2, 1.5
    variant = q_objective_bias_recipe(scores, sigma2, p, t)
    for q in range(1, p + 1):
        expected = float(np.sum(scores[q:])) + sigma2 * (1.0 + t) * (2 * q - (p + 1))
        assert variant[q - 1] == pytest.approx(expected, rel=1e-12)
    # the correction terms differ, but only by a q-independent affine map:
    # (1 + t) * printed - variant = sigma2 (1 + t) (2p + 1) at every rank,
    # so the two objectives have the same argmin
    printed = q_objective(scores, sigma2, p, t, "oracle").values
    tails = np.array([float(np.sum(scores[q:])) for q in range(1, p + 1)])
    gap = (printed - tails / (1.0 + t)) - (variant - tails)
    assert np.all(np.abs(gap) > 0)
    np.testing.assert_allclose((1.0 + t) * printed - variant,
                               sigma2 * (1.0 + t) * (2 * p + 1), rtol=1e-12)


# Subnormal inputs are left out: dividing by 1 + t can round two distinct
# subnormal objective values to one (scores [1, 5e-324, 0], sigma2 0, t 1).
_normal_floats = partial(st.floats, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(
    retained=st.lists(_normal_floats(0.0, 1e6), min_size=1, max_size=8),
    discarded=_normal_floats(0.0, 1e6),
    sigma2=_normal_floats(0.0, 1e3),
    t=_normal_floats(0.0, 1e3),
)
def test_bias_recipe_selects_the_primary_rank(retained, discarded, sigma2, t):
    # with s = sigma2 (1 + t) both objectives are increasing affine maps of
    # tail_q + 2 s q, so their argmins agree away from floating-point ties
    p = len(retained)
    scores = np.append(np.sort(retained)[::-1], discarded)
    s = sigma2 * (1.0 + t)
    key = np.array([np.sum(scores[q:]) + 2 * s * q for q in range(1, p + 1)])
    if p > 1:
        lo, hi = np.sort(key)[:2]
        assume(hi - lo > 1e-9 * hi)
    q_star = q_objective(scores, sigma2, p, t, "oracle").q_star
    assert int(np.argmin(q_objective_bias_recipe(scores, sigma2, p, t))) + 1 == q_star


def test_q_objective_picks_the_smallest_rank_on_exact_ties():
    # dyadic scores with scores[1] = scores[2] = 2 sigma2 (1 + t): ranks 1-3
    # tie exactly in floating point, and so does the bias recipe
    scores = np.array([4.0, 0.25, 0.25, 0.015625, 0.5])
    qobj = q_objective(scores, 0.0625, 4, 1.0, "oracle")
    assert qobj.values[0] == qobj.values[1] == qobj.values[2] < qobj.values[3]
    assert qobj.q_star == 1
    variant = q_objective_bias_recipe(scores, 0.0625, 4, 1.0)
    assert variant[0] == variant[1] == variant[2] < variant[3]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tls_solution_is_column_permutation_equivariant(seed, data):
    # permuting the columns of H permutes theta_hat and leaves x_hat alone
    model = make_model(seed)
    real = sample_tls(model, SEED, 0)
    perm = np.array(data.draw(st.permutations(range(4))))
    est = tls_solve(real.H_tilde, real.y)
    permuted = tls_solve(real.H_tilde[:, perm], real.y)
    np.testing.assert_allclose(permuted.theta_hat, est.theta_hat[perm], rtol=0, atol=1e-12)
    np.testing.assert_allclose(permuted.x_hat, est.x_hat, rtol=0, atol=1e-12)


# Magnitudes keep every intermediate of the scaled objective a normal float,
# so a power-of-two scale is exact.
_scaled_floats = st.one_of(st.just(0.0), st.floats(1e-50, 1e50))


@settings(max_examples=200, deadline=None)
@given(
    retained=st.lists(_scaled_floats, min_size=1, max_size=8),
    discarded=_scaled_floats,
    sigma2=_scaled_floats,
    t=st.floats(0.0, 1e3),
    k=st.integers(-20, 20),
)
def test_q_objective_is_scale_equivariant(retained, discarded, sigma2, t, k):
    # scaling the scores and sigma2 by 4**k scales every objective value
    # by 4**k exactly, so the selected rank stays
    p = len(retained)
    scores = np.append(np.sort(retained)[::-1], discarded)
    c = 4.0**k
    qobj = q_objective(scores, sigma2, p, t, "oracle")
    scaled = q_objective(c * scores, c * sigma2, p, t, "oracle")
    assert np.array_equal(scaled.values, c * qobj.values)
    assert scaled.q_star == qobj.q_star


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tls_solution_is_orthogonally_invariant(seed):
    # rotating the rows of H and y leaves theta_hat alone and rotates x_hat
    model = make_model(seed)
    real = sample_tls(model, SEED, 0)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((model.N, model.N)))
    est = tls_solve(real.H_tilde, real.y)
    rotated = tls_solve(Q @ real.H_tilde, Q @ real.y)
    np.testing.assert_allclose(rotated.theta_hat, est.theta_hat, rtol=1e-9)
    np.testing.assert_allclose(rotated.x_hat, Q @ est.x_hat, rtol=1e-9,
                               atol=1e-12 * np.linalg.norm(real.y))


def test_augmented_scores_layout():
    rng = np.random.default_rng(97)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    y = rng.standard_normal(8)
    basis = order_by_scores(Q[:, :2], y)
    u_s = Q[:, 2]
    scores = augmented_scores(basis, u_s, y)
    assert scores.shape == (3,)
    assert np.array_equal(scores[:2], basis.scores)
    assert scores[2] == pytest.approx(float(u_s @ y) ** 2, rel=1e-14)


def _plain_argmin(values):
    # min returns the first smallest index, so ties go to the smaller rank
    return min(range(len(values)), key=values.__getitem__) + 1


def _plain_q_values(scores, sigma2, p, t):
    return [(sum(scores[q:]) + sigma2 * (1 + t) * (2 * q + p)) / (1 + t) for q in range(1, p + 1)]


@st.composite
def _dyadic_q_inputs(draw):
    # scores, sigma2 and t are k / 64, so every numerator is exact and the
    # division by 1 + t keeps their order and their ties; some retained
    # scores sit exactly on the threshold 2 sigma2 (1 + t)
    sigma2 = draw(st.integers(0, 256)) / 64
    t = draw(st.integers(0, 512)) / 64
    score = st.one_of(st.integers(0, 4096).map(lambda k: k / 64), st.just(2 * sigma2 * (1 + t)))
    retained = sorted(draw(st.lists(score, min_size=1, max_size=8)), reverse=True)
    return retained + [draw(score)], sigma2, t


@settings(max_examples=200, deadline=None)
@given(inputs=_dyadic_q_inputs())
def test_q_objective_is_the_exact_argmin_on_dyadic_inputs(inputs):
    scores, sigma2, t = inputs
    p = len(scores) - 1
    assert q_objective(scores, sigma2, p, t, "oracle").q_star == _plain_argmin(
        _plain_q_values(scores, sigma2, p, t))


@settings(max_examples=200, deadline=None)
@given(
    retained=st.lists(_normal_floats(0.0, 1e6), min_size=1, max_size=8),
    discarded=_normal_floats(0.0, 1e6),
    sigma2=_normal_floats(0.0, 1e3),
    t=_normal_floats(0.0, 1e3),
)
def test_q_objective_is_the_argmin_away_from_ties(retained, discarded, sigma2, t):
    p = len(retained)
    scores = sorted(retained, reverse=True) + [discarded]
    values = _plain_q_values(scores, sigma2, p, t)
    if p > 1:
        lo, hi = sorted(values)[:2]
        assume(hi - lo > 1e-9 * hi)
    assert q_objective(scores, sigma2, p, t, "oracle").q_star == _plain_argmin(values)


def test_q_objective_selects_the_exact_minimum_when_a_score_is_absorbed():
    # the second retained score vanishes in the rounding of the rank-1 tail
    # sum, so both float values read 1.0; in exact arithmetic rank 2 is
    # smaller by that score, and 2 retained scores exceed 2 sigma2 (1 + t) = 0
    qobj = q_objective([1.0, 6.696934434898844e-100, 1.0], 0.0, 2, 0.0, "oracle")
    assert qobj.values.tolist() == [1.0, 1.0]
    assert qobj.q_star == 2


@pytest.mark.parametrize("k", [-20, -3, 1, 4, 30])
def test_tls_solve_is_scale_equivariant(k):
    # scaling H_tilde and y by 2**k scales the augmented matrix exactly, so
    # theta_hat stays and x_hat scales by 2**k
    model = make_model(k + 40)
    real = sample_tls(model, SEED, 0)
    c = 2.0**k
    est = tls_solve(real.H_tilde, real.y)
    scaled = tls_solve(c * real.H_tilde, c * real.y)
    np.testing.assert_allclose(scaled.theta_hat, est.theta_hat, rtol=1e-12)
    np.testing.assert_allclose(scaled.x_hat, c * est.x_hat, rtol=1e-12)
