import numpy as np
import pytest

from rrtls import (
    MeasurementModel,
    ModelInvalidError,
    gaussian_model,
    planted_model,
    sample_ls,
    sample_tls,
    spectrum_model,
    trial_rng,
)

SEED = 20260808


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((16, 4))
    theta = np.array([1.0, -0.5, 0.25, 2.0])
    return MeasurementModel(H=H, theta=theta, sigma2=0.25)


@pytest.fixture(scope="module")
def ls_batch(model):
    n = 100_000
    return np.stack([sample_ls(model, SEED, t).y for t in range(n)])


def test_model_dimensions_and_signal(model):
    assert model.N == 16
    assert model.p == 4
    assert model.x.shape == (16,)
    np.testing.assert_allclose(model.x, model.H @ model.theta, rtol=0, atol=0)


def test_model_rejects_rank_deficient_h():
    H = np.ones((6, 3))  # identical columns
    with pytest.raises(ModelInvalidError, match="singular value"):
        MeasurementModel(H=H, theta=np.ones(3), sigma2=1.0)


def test_model_rejects_bad_inputs():
    H = np.eye(4)[:, :2]
    with pytest.raises(ModelInvalidError):
        MeasurementModel(H=H, theta=np.ones(3), sigma2=1.0)
    with pytest.raises(ModelInvalidError):
        MeasurementModel(H=H, theta=np.ones(2), sigma2=-0.1)
    with pytest.raises(ModelInvalidError):
        MeasurementModel(H=np.ones((2, 4)), theta=np.ones(4), sigma2=1.0)


def test_model_arrays_immutable(model):
    with pytest.raises(ValueError):
        model.H[0, 0] = 99.0
    real = sample_ls(model, 1, 0)
    with pytest.raises(ValueError):
        real.y[0] = 0.0


def test_sample_ls_noiseless_is_exact():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((10, 3))
    theta = rng.standard_normal(3)
    m = MeasurementModel(H=H, theta=theta, sigma2=0.0)
    real = sample_ls(m, 123, 7)
    assert np.array_equal(real.y, m.x)
    assert real.H_tilde is None


def test_sample_ls_identity_design():
    m = MeasurementModel(H=np.eye(2), theta=[1.0, 2.0], sigma2=0.0)
    real = sample_ls(m, 0, 0)
    assert np.array_equal(real.y, np.array([1.0, 2.0]))


def test_sampling_reproducible_and_order_independent(model):
    a = sample_ls(model, 42, 3)
    b = sample_ls(model, 42, 3)
    assert np.array_equal(a.y, b.y)
    # drawing trials out of order changes nothing
    later = sample_ls(model, 42, 9).y
    earlier = sample_ls(model, 42, 3).y
    assert np.array_equal(earlier, a.y)
    assert not np.array_equal(later, a.y)

    ta = sample_tls(model, 42, 3)
    tb = sample_tls(model, 42, 3)
    assert np.array_equal(ta.y, tb.y)
    assert np.array_equal(ta.H_tilde, tb.H_tilde)


def test_distinct_seeds_differ(model):
    assert not np.array_equal(sample_ls(model, 1, 0).y, sample_ls(model, 2, 0).y)


def test_sample_ls_moments(model, ls_batch):
    # Monte Carlo moment oracle: per-coordinate mean and variance of y.
    n = ls_batch.shape[0]
    mean = ls_batch.mean(axis=0)
    se_mean = np.sqrt(model.sigma2 / n)
    assert np.all(np.abs(mean - model.x) <= 3.0 * se_mean)

    var = ls_batch.var(axis=0, ddof=1)
    se_var = model.sigma2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - model.sigma2) <= 3.0 * se_var)


def test_trials_uncorrelated(model, ls_batch):
    # consecutive trials should show near-zero empirical cross-correlation
    first = ls_batch[:-1, 0] - model.x[0]
    second = ls_batch[1:, 0] - model.x[0]
    n = first.shape[0]
    corr = float(first @ second) / (np.linalg.norm(first) * np.linalg.norm(second))
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_sample_tls_noiseless_is_exact(model):
    m = MeasurementModel(H=model.H, theta=model.theta, sigma2=0.0)
    real = sample_tls(m, 5, 11)
    assert np.array_equal(real.y, m.x)
    assert np.array_equal(real.H_tilde, m.H)


def test_sample_tls_zero_parameter_variance():
    rng = np.random.default_rng(13)
    H = rng.standard_normal((16, 4))
    m = MeasurementModel(H=H, theta=np.zeros(4), sigma2=0.25)
    n = 50_000
    ys = np.stack([sample_tls(m, 78, t).y for t in range(n)])
    var = ys.var(axis=0, ddof=1)
    se_var = 0.25 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - 0.25) <= 3.0 * se_var)


def test_sample_tls_compound_variance():
    # theta'theta = 3 with sigma2 = 0.25 gives per-entry variance 1.0
    rng = np.random.default_rng(17)
    H = rng.standard_normal((16, 4))
    theta = np.array([1.0, 1.0, 1.0, 0.0]) * np.sqrt(1.0)
    m = MeasurementModel(H=H, theta=theta, sigma2=0.25)
    assert m.theta_norm2 == pytest.approx(3.0)
    n = 100_000
    ys = np.stack([sample_tls(m, 99, t).y for t in range(n)])
    target = 0.25 * (1.0 + 3.0)
    var = ys.var(axis=0, ddof=1)
    se_var = target * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - target) <= 3.0 * se_var)
    # mean stays at the noiseless signal
    se_mean = np.sqrt(target / n)
    assert np.all(np.abs(ys.mean(axis=0) - m.x) <= 3.0 * se_mean)


def test_sample_tls_matrix_noise_variance(model):
    n = 20_000
    es = np.stack([sample_tls(model, 31, t).H_tilde - model.H for t in range(n)])
    flat = es.reshape(n, -1)
    var = flat.var(axis=0, ddof=1)
    se_var = model.sigma2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - model.sigma2) <= 4.0 * se_var)
    # observation noise and matrix noise are drawn independently
    ys = np.stack([sample_tls(model, 31, t).y - model.x for t in range(n)])
    corr = (ys[:, 0] @ flat[:, 0]) / (
        np.linalg.norm(ys[:, 0]) * np.linalg.norm(flat[:, 0])
    )
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_model_builders_are_deterministic():
    a = gaussian_model(N=12, p=3, theta=[1.0, 2.0, 3.0], sigma2=0.5, seed=4)
    b = gaussian_model(N=12, p=3, theta=[1.0, 2.0, 3.0], sigma2=0.5, seed=4)
    assert np.array_equal(a.H, b.H)

    s = spectrum_model(N=12, spectrum=[5.0, 2.0, 1.0], theta=[1.0, 0.0, -1.0], sigma2=0.1, seed=6)
    svals = np.linalg.svd(s.H, compute_uv=False)
    np.testing.assert_allclose(svals, [5.0, 2.0, 1.0], rtol=1e-12)

    pm = planted_model(N=10, coefficients=[3.0, 2.0, 1.0], sigma2=0.0, seed=9)
    # planted energies survive the SVD of H
    U, _, _ = np.linalg.svd(pm.H, full_matrices=False)
    scores = np.sort((U.T @ pm.x) ** 2)[::-1]
    np.testing.assert_allclose(scores, [9.0, 4.0, 1.0], atol=1e-20, rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 20260808, 2**32 - 1, 2**32, 2**40 + 3])
@pytest.mark.parametrize("trial", [0, 7, 2**32 - 1, 2**32])
def test_trial_rng_stream_is_the_seed_sequence_of_seed_and_trial(seed, trial):
    reference = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    assert np.array_equal(trial_rng(seed, trial).standard_normal(9), reference.standard_normal(9))


def test_trial_rng_rejects_negative_entropy():
    with pytest.raises(ValueError):
        trial_rng(1, -1)
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
