import dataclasses
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrtls.model
from rrtls import (
    MeasurementModel,
    ModelInvalidError,
    bias_estimate,
    gaussian_model,
    ls_full,
    norm_dependence_certificate,
    order_by_scores,
    planted_model,
    q_objective,
    sample_ls,
    sample_tls,
    select_rank_ls,
    spectrum_model,
    svd,
    tls_solve,
    trial_rng,
)
from rrtls.model import (
    _WINDOW,
    _aux_rng,
    _pcg64_states,
    _state_words,
    sample_ls_block,
    sample_tls_block,
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
    # the block sampler's rows are sample_ls(model, SEED, t).y bit for bit
    # (test_blocks_match_per_trial_draws)
    return sample_ls_block(model, SEED, 0, 100_000)


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


def _tls_observations(m, seed, n, chunk=8192):
    """``sample_tls(m, seed, t).y`` for trials ``0..n-1`` stacked, drawn
    through the block sampler (bit for bit the same rows) chunk by chunk."""
    return np.concatenate([sample_tls_block(m, seed, start, min(start + chunk, n))[..., m.p]
                           for start in range(0, n, chunk)])


def test_sample_tls_zero_parameter_variance():
    rng = np.random.default_rng(13)
    H = rng.standard_normal((16, 4))
    m = MeasurementModel(H=H, theta=np.zeros(4), sigma2=0.25)
    n = 50_000
    ys = _tls_observations(m, 78, n)
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
    ys = _tls_observations(m, 99, n)
    target = 0.25 * (1.0 + 3.0)
    var = ys.var(axis=0, ddof=1)
    se_var = target * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - target) <= 3.0 * se_var)
    # mean stays at the noiseless signal
    se_mean = np.sqrt(target / n)
    assert np.all(np.abs(ys.mean(axis=0) - m.x) <= 3.0 * se_mean)


def test_sample_tls_matrix_noise_variance(model):
    n = 20_000
    A = sample_tls_block(model, 31, 0, n)
    es = A[..., :model.p] - model.H
    flat = es.reshape(n, -1)
    var = flat.var(axis=0, ddof=1)
    se_var = model.sigma2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - model.sigma2) <= 4.0 * se_var)
    # observation noise and matrix noise are drawn independently
    ys = A[..., model.p] - model.x
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: spectrum_model(N=3, spectrum=[4.0, 3.0, 2.0, 1.0], theta=[1.0, 0.0, 0.0, 1.0],
                               sigma2=0.1, seed=6),
        lambda: planted_model(N=3, coefficients=[4.0, 3.0, 2.0, 1.0], sigma2=0.1, seed=9),
    ],
    ids=["spectrum", "planted"],
)
def test_model_builders_reject_more_columns_than_rows(monkeypatch, build):
    # the shape is checked before the design is drawn, with the same typed
    # error and message as MeasurementModel itself
    def refuse(*args):
        raise AssertionError("the design was drawn")

    monkeypatch.setattr(rrtls.model, "_aux_rng", refuse)
    with pytest.raises(ModelInvalidError, match=r"need 1 <= p <= N, got N=3, p=4"):
        build()


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


@pytest.mark.parametrize("tag", [1, 2, 3], ids=["gaussian", "spectrum", "planted"])
def test_model_design_streams_are_disjoint_from_trial_streams(tag):
    # the builders draw their designs from _aux_rng(seed, tag) with tags 1-3,
    # which must not replay trial `tag`'s noise in a sweep at the same seed
    assert not np.array_equal(_aux_rng(7, tag).standard_normal(16),
                              trial_rng(7, tag).standard_normal(16))


# ---------------------------------------------------------------------------
# block sampler: bit-identical to stacked per-trial draws
# ---------------------------------------------------------------------------

def _assert_blocks_match_per_trial(model, seed, start, stop):
    trials = range(start, stop)
    ys = np.stack([sample_ls(model, seed, t).y for t in trials])
    assert sample_ls_block(model, seed, start, stop).tobytes() == ys.tobytes()
    reals = [sample_tls(model, seed, t) for t in trials]
    augmented = np.stack([np.column_stack([r.H_tilde, r.y]) for r in reals])
    assert sample_tls_block(model, seed, start, stop).tobytes() == augmented.tobytes()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 3])
@pytest.mark.parametrize(
    "start, stop",
    [(0, 3), (5, 12), (1000, 1030), (2040, 3080), (2**32 - 3, 2**32 + 2), (2**32 + 7, 2**32 + 9)],
    ids=["aligned", "unaligned", "crosses-1024", "crosses-two-windows", "crosses-2^32",
         "above-2^32"],
)
def test_blocks_match_per_trial_draws(model, seed, start, stop):
    _assert_blocks_match_per_trial(model, seed, start, stop)


def test_noiseless_blocks_match_per_trial_draws(model):
    noiseless = MeasurementModel(H=model.H, theta=model.theta, sigma2=0.0)
    _assert_blocks_match_per_trial(noiseless, SEED, 1020, 1030)
    assert np.array_equal(sample_ls_block(noiseless, SEED, 0, 2), np.stack([noiseless.x] * 2))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)),
    start=st.one_of(st.integers(0, 4096), st.integers(2**32 - 6, 2**32 + 6)),
    b=st.integers(1, 9),
    shape=st.integers(2, 12).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N - 1))),
    sigma2=st.sampled_from([0.0, 0.3]),
)
def test_blocks_match_per_trial_draws_property(seed, start, b, shape, sigma2):
    N, p = shape
    rng = np.random.default_rng(N * 100 + p)
    m = MeasurementModel(H=rng.standard_normal((N, p)), theta=rng.standard_normal(p), sigma2=sigma2)
    _assert_blocks_match_per_trial(m, seed, start, start + b)


# ---------------------------------------------------------------------------
# block sampler internals: seeded state words and the raw state write
# ---------------------------------------------------------------------------

def _seeded_words(seed, trial):
    pcg = trial_rng(seed, trial).bit_generator.state["state"]
    return [w >> s & (2**64 - 1) for w in (pcg["state"], pcg["inc"]) for s in (0, 64)]


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
@pytest.mark.parametrize("window", [0, 1, 2**22 - 1])
def test_pcg64_states_are_the_seeded_generators_words(seed, window):
    # full windows: 1024 limb-arithmetic seedings each, covering the carry
    # of the 128-bit add and the 32-bit half products
    expected = [_seeded_words(seed, window * _WINDOW + k) for k in range(_WINDOW)]
    assert _pcg64_states(seed, window).tolist() == expected


def test_pcg64_states_are_read_only():
    states = _pcg64_states(5, 0)
    assert states.shape == (_WINDOW, 4) and states.dtype == np.uint64
    assert not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0] = 0


@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_blocks_match_per_trial_draws_through_the_public_setter(model, monkeypatch, seed):
    # a layout probe that rejects the raw words falls back to bitgen.state
    monkeypatch.setattr(rrtls.model, "_state_words", lambda bitgen: None)
    _assert_blocks_match_per_trial(model, seed, 1020, 1030)


@pytest.mark.skipif(sys.byteorder != "little" or sys.platform == "win32",
                    reason="the (lo, hi) word layout needs a little-endian build with __int128")
def test_layout_probe_accepts_this_build():
    # the raw write must be the path taken here, not a silent fallback
    bitgen = np.random.PCG64(0)
    words = _state_words(bitgen)
    assert words is not None
    words[0] = _pcg64_states(7, 0)[3:4].view("V32")[0, 0]
    assert bitgen.state == trial_rng(7, 3).bit_generator.state


def test_layout_probe_reads_nothing_outside_the_generator():
    # a state address outside the object (here near null) is refused before
    # any read, so a changed numpy layout falls back instead of crashing
    fake = SimpleNamespace(ctypes=SimpleNamespace(state_address=8))
    assert _state_words(fake) is None


# ---------------------------------------------------------------------------
# the public result types hold frozen copies of their arrays
# ---------------------------------------------------------------------------

# array fields of each public result type; the int ones are named in _INTS
_ARRAY_FIELDS = {
    "Realization": ("y", "H_tilde"),
    "SvdFactorization": ("U", "S", "V"),
    "OrderedBasis": ("columns", "scores", "permutation"),
    "LsEstimate": ("theta_hat", "x_hat", "n_hat"),
    "BiasEstimate": ("b_hat",),
    "RankSelection": ("objective",),
    "TlsEstimate": ("theta_hat", "x_hat", "n_hat", "H_corrected"),
    "QObjective": ("values", "scores"),
    "NormDependenceCertificate": ("theta_norm2_grid", "q_stars"),
}
_INTS = {"permutation", "q_stars"}


def _public_results():
    """Each public result type built through its public function, and the
    writable inputs the caller still holds afterwards."""
    rng = np.random.default_rng(41)
    H = rng.standard_normal((8, 3))
    model = MeasurementModel(H=H, theta=[1.0, -0.5, 2.0], sigma2=0.1)
    y = sample_tls(model, 3, 0).y.copy()
    Q = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    basis = order_by_scores(Q, y)
    scores = np.array([4.0, 2.0, 1.0, 0.5])
    grid = np.array([0.0, 1.0, 10.0])
    results = [
        sample_tls(model, 3, 0),
        svd(H),
        basis,
        ls_full(H, y),
        bias_estimate(basis, y, 2, 0.1),
        select_rank_ls(basis, 0.1, 3),
        tls_solve(H, y),
        q_objective(scores, 0.1, 3, 1.0, "oracle"),
        norm_dependence_certificate(grid, scores, 0.1, 3),
    ]
    return results, [H, y, Q, scores, grid]


def test_public_results_hold_read_only_copies_of_their_arrays():
    results, inputs = _public_results()
    assert sorted(type(r).__name__ for r in results) == sorted(_ARRAY_FIELDS)
    arrays = [(r, f) for r in results for f in _ARRAY_FIELDS[type(r).__name__]]
    before = [getattr(r, f).copy() for r, f in arrays]
    for r, f in arrays:
        value = getattr(r, f)
        where = (type(r).__name__, f)
        assert isinstance(value, np.ndarray), where
        assert not value.flags.writeable, where
        assert value.dtype == (np.dtype(int) if f in _INTS else np.float64), where
        assert not any(np.shares_memory(value, a) for a in inputs), where
        # a writable array handed to the constructor is copied, not kept
        mine = value.copy()
        rebuilt = dataclasses.replace(r, **{f: mine})
        mine[...] = 7
        assert np.array_equal(getattr(rebuilt, f), value), where
        assert not getattr(rebuilt, f).flags.writeable, where
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, f, value.copy())
    for a in inputs:  # the caller changes its inputs afterwards
        a[...] = np.nan
    for (r, f), old in zip(arrays, before):
        assert np.array_equal(getattr(r, f), old), (type(r).__name__, f)


def test_additive_realization_has_no_perturbed_matrix(model):
    real = sample_ls(model, SEED, 0)
    assert real.H_tilde is None
    assert dataclasses.replace(real, y=np.zeros(16)).H_tilde is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        real.H_tilde = np.zeros((16, 4))
