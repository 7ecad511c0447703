import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrtls.harness as harness_mod
from rrtls import (
    ExperimentSpec,
    InsufficientDataError,
    MeasurementModel,
    NonUniqueTlsError,
    RrtlsError,
    augmented_scores,
    bias_estimate,
    compare_selection_rules,
    gaussian_model,
    ls_reduced,
    order_by_scores,
    planted_model,
    q_objective,
    q_objective_bias_recipe,
    run,
    sample_ls,
    sample_tls,
    search_norm_dependence_witness,
    norm_dependence_certificate,
    select_rank_ls,
    mse_theoretical_tls_full,
    svd,
    tls_reduced,
    tls_solve,
    verify_chi_square,
)
from rrtls.harness import VecStats
import rrtls.tls as tls_mod
from rrtls.tls import tls_factor_stack

SEED = 606060


def small_model(sigma2=0.25, seed=3):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((16, 4))
    theta = np.array([1.0, -0.5, 0.25, 2.0])
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)


def tls_model(sigma2=0.04, seed=5):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((16, 4))
    theta = rng.standard_normal(4)
    theta *= np.sqrt(1.0 / (theta @ theta))
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------

def test_single_noiseless_trial_has_zero_mse():
    model = MeasurementModel(H=np.eye(4), theta=[1.0, -2.0, 0.5, 3.0], sigma2=0.0)
    spec = ExperimentSpec(model=model, family="ls", trials=1, seed=1)
    res = run(spec)
    assert res.completed == 1
    assert res.mse_emp[-1] == 0.0
    # a generic design reconstructs to machine precision
    generic = run(
        ExperimentSpec(model=small_model(sigma2=0.0), family="ls", trials=1, seed=1)
    )
    assert 0.0 <= generic.mse_emp[-1] <= 1e-28


def test_full_rank_mse_matches_law():
    spec = ExperimentSpec(model=small_model(), family="ls", trials=100_000, seed=SEED)
    res = run(spec)
    target = 4 * 0.25
    assert abs(res.mse_emp[-1] - target) <= 0.02 * target
    assert res.moments is not None and res.moments.mean_ok and res.moments.var_ok


def test_planted_reduced_rank_run():
    model = planted_model(N=16, coefficients=[20.0, 12.0, 0.0, 0.0], sigma2=1.0, seed=7)
    spec = ExperimentSpec(model=model, family="rrls", trials=100_000, seed=SEED + 1)
    res = run(spec)
    assert abs(res.mse_emp[1] - 2.0) <= 0.03 * 2.0
    assert res.mse_emp[1] < res.mse_emp[3]
    assert bool(res.row_pass[1])


def test_sequential_runs_are_bit_identical():
    spec = ExperimentSpec(model=small_model(), family="rrls", trials=2_000, seed=9)
    a = run(spec)
    b = run(spec)
    assert np.array_equal(a.mse_emp, b.mse_emp)
    assert np.array_equal(a.mse_se, b.mse_se)
    assert np.array_equal(a.sel_freq, b.sel_freq)
    assert a.auto_mse == b.auto_mse


def test_paired_realizations_across_families():
    # same seed => same sampled observations, so the ls and rrls tables agree
    model = small_model()
    a = run(ExperimentSpec(model=model, family="ls", trials=500, seed=13))
    b = run(ExperimentSpec(model=model, family="rrls", trials=500, seed=13))
    assert np.array_equal(a.mse_emp, b.mse_emp)
    assert np.array_equal(a.sel_freq, b.sel_freq)


def _spy_sq_rows(monkeypatch):
    """Record the per-rank squared errors (b, p) of every chunk the engine
    merges into its totals, in merge order (trial order)."""
    rows = []
    add_chunk = harness_mod._Accumulator.add_chunk

    def spy(self, sq, r_index, **blocks):
        rows.append(sq)
        add_chunk(self, sq, r_index, **blocks)

    monkeypatch.setattr(harness_mod._Accumulator, "add_chunk", spy)
    return rows


def test_streaming_matches_batch_recomputation(monkeypatch):
    rows = _spy_sq_rows(monkeypatch)
    spec = ExperimentSpec(model=small_model(), family="rrls", trials=400, seed=15)
    res = run(spec)
    raw = np.concatenate(rows)
    assert raw.shape == (400, 4)
    np.testing.assert_allclose(res.mse_emp, raw.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(
        res.mse_se, raw.std(axis=0, ddof=1) / np.sqrt(400), rtol=1e-10
    )


def test_tls_run_reports_conditional_theory_and_formula():
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=2_000, seed=17)
    res = run(spec)
    assert res.failures == {}
    assert res.completed == 2_000
    assert res.tls_full_formula_mean > 0
    assert res.mse_theory.shape == (4,)
    # conditional theory mean tracks the empirical MSE loosely at small noise
    assert np.all(res.mse_theory > 0)


def test_rank_policy_validation():
    model = small_model()
    with pytest.raises(ValueError, match="family"):
        ExperimentSpec(model=model, family="nope", trials=10, seed=1)
    with pytest.raises(ValueError, match="bound"):
        ExperimentSpec(model=model, family="rrtls", trials=10, seed=1, tls_mode="bound")


@pytest.mark.parametrize(
    "family, tls_mode, bound, message",
    [
        ("rrls", "bound", 3.0, "tls_mode must be 'oracle'"),
        ("ls", "bound", 1.0, "tls_mode must be 'oracle'"),
        ("ls", "oracle", 1.0, "bound is only used in bound mode"),
        ("rrtls", "oracle", 3.0, "bound is only used in bound mode"),
        ("tls", "oracle", 0.0, "bound is only used in bound mode"),
    ],
    ids=["rrls-bound-mode", "ls-bound-mode", "ls-bound", "rrtls-oracle-bound", "tls-oracle-bound"],
)
def test_spec_rejects_settings_it_would_ignore(family, tls_mode, bound, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(model=tls_model(), family=family, trials=10, seed=1,
                       tls_mode=tls_mode, bound=bound)


def test_failures_are_counted_not_imputed(monkeypatch):
    real_factor = harness_mod.tls_factor_stack

    def flaky_factor(A):
        # deterministic failure injection: the error path is measure-zero
        # under generic sampling, so force it for odd-sum observations
        U, core, codes = real_factor(A)
        injected = np.floor(np.abs(A[:, 0, -1]) * 1e6) % 2 == 1
        return U, core, np.where(injected, NonUniqueTlsError.code, codes)

    monkeypatch.setattr(harness_mod, "tls_factor_stack", flaky_factor)
    spec = ExperimentSpec(model=tls_model(), family="tls", trials=100, seed=35)
    res = run(spec)
    assert res.failures.get("nonunique-tls", 0) > 0
    assert res.completed + res.failures["nonunique-tls"] == 100
    # aggregates come from completed trials only
    assert np.isfinite(res.mse_emp).all()


def test_kept_rows_keep_their_shape_when_every_trial_is_rejected(monkeypatch):
    factor = harness_mod.tls_factor_stack

    def reject_all(A):
        U, core, codes = factor(A)
        return U, core, np.full(codes.shape, NonUniqueTlsError.code)

    monkeypatch.setattr(harness_mod, "tls_factor_stack", reject_all)
    rows = _spy_sq_rows(monkeypatch)
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=10, seed=69)
    res = run(spec)
    assert res.completed == 0 and res.failures == {"nonunique-tls": 10}
    assert rows == []  # no chunk merges rows into the totals


def test_vecstats_merge_matches_streaming():
    rng = np.random.default_rng(19)
    xs = rng.standard_normal((1000, 3)) ** 2
    whole = VecStats((3,))
    for x in xs:
        whole.add(x)
    left, right = VecStats((3,)), VecStats((3,))
    for x in xs[:400]:
        left.add(x)
    for x in xs[400:]:
        right.add(x)
    left.merge(right)
    np.testing.assert_allclose(left.mean, whole.mean, rtol=1e-12)
    np.testing.assert_allclose(left.m2, whole.m2, rtol=1e-10)
    np.testing.assert_allclose(left.m4, whole.m4, rtol=1e-9)
    np.testing.assert_allclose(whole.mean, xs.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(whole.variance(), xs.var(axis=0, ddof=1), rtol=1e-10)


def test_block_moments_merge_like_streaming():
    rng = np.random.default_rng(57)
    xs = rng.standard_normal((1000, 3)) ** 2
    xs[:, 1] = 0.16  # a constant column keeps an exact mean and zero spread
    whole = VecStats((3,))
    for x in xs:
        whole.add(x)
    merged = VecStats((3,))
    for start in range(0, 1000, 128):
        merged.merge(VecStats.from_block(xs[start:start + 128]))
    merged.merge(VecStats.from_block(np.empty((0, 3))))
    assert merged.n == 1000
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
    np.testing.assert_allclose(merged.m2, whole.m2, rtol=1e-10)
    np.testing.assert_allclose(merged.m3, whole.m3, rtol=1e-9, atol=1e-9 * whole.m2.max())
    np.testing.assert_allclose(merged.m4, whole.m4, rtol=1e-9)
    assert merged.mean[1] == 0.16
    assert merged.m2[1] == merged.m3[1] == merged.m4[1] == 0.0


# ---------------------------------------------------------------------------
# verify_chi_square
# ---------------------------------------------------------------------------

def test_chi_square_verifier_accepts_true_law():
    rng = np.random.default_rng(21)
    sigma2 = 0.5
    errors = np.sqrt(sigma2) * rng.standard_normal((100_000, 4))
    report = verify_chi_square(errors, sigma2, dof=4)
    assert report.mean_ok and report.var_ok
    assert abs(report.mean - 4) <= 3.5 * report.mean_se
    assert abs(report.variance - 8) <= 3.5 * report.variance_se


def test_chi_square_scale_equivariance():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((20_000, 4))
    base = verify_chi_square(np.sqrt(0.5) * z, 0.5, dof=4)
    doubled = verify_chi_square(np.sqrt(1.0) * z, 0.5, dof=4)  # errors from 2x variance
    assert doubled.mean / base.mean == pytest.approx(2.0, rel=1e-10)


def test_chi_square_negative_control():
    rng = np.random.default_rng(25)
    errors = rng.standard_normal((50_000, 4))
    report = verify_chi_square(errors, 1.0, dof=3)  # deliberately wrong dof
    assert not report.mean_ok


def test_chi_square_insufficient_data():
    with pytest.raises(InsufficientDataError):
        verify_chi_square(np.ones((100, 4)), 1.0, dof=4)


@pytest.mark.parametrize(
    "sigma2, dof, entry, message",
    [
        (float("nan"), 4, 1.0, "sigma2 must be finite"),
        (float("inf"), 4, 1.0, "sigma2 must be finite"),
        (1.0, 4, float("nan"), "entries must be finite"),
        (1.0, 4, float("inf"), "entries must be finite"),
        (1.0, 0, 1.0, "dof must be a positive integer"),
        (1.0, -1, 1.0, "dof must be a positive integer"),
        (1.0, 2.5, 1.0, "dof must be a positive integer"),
    ],
    ids=["sigma2-nan", "sigma2-inf", "entry-nan", "entry-inf", "dof-0", "dof-negative", "dof-fraction"],
)
def test_chi_square_rejects_invalid_inputs(sigma2, dof, entry, message):
    errors = np.ones((harness_mod.MIN_SAMPLES, 4))
    errors[0, 0] = entry
    with pytest.raises(ValueError, match=message):
        verify_chi_square(errors, sigma2, dof=dof)


# ---------------------------------------------------------------------------
# selection-rule comparison and the norm-dependence witness
# ---------------------------------------------------------------------------

def test_comparison_requires_rrtls():
    spec = ExperimentSpec(model=tls_model(), family="tls", trials=10, seed=1)
    with pytest.raises(ValueError, match="rrtls"):
        compare_selection_rules(spec, [0.0, 1.0])


def test_single_grid_point_never_flags():
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=50, seed=27)
    comp = compare_selection_rules(spec, [1.0])
    assert not comp.theta_dependent
    assert comp.witness is None
    assert comp.q_star_freq.shape == (1, 4)


def test_noiseless_selection_is_grid_invariant():
    model = tls_model(sigma2=0.0)
    spec = ExperimentSpec(model=model, family="rrtls", trials=50, seed=29)
    comp = compare_selection_rules(spec, [0.0, 1.0, 5.0, 20.0])
    assert not comp.theta_dependent
    assert np.array_equal(comp.q_star_freq[0], comp.q_star_freq[-1])


def test_noisy_selection_depends_on_norm():
    # noise scores comparable to the threshold make the selected rank move
    # with the assumed parameter norm on at least one paired realization
    model = tls_model(sigma2=0.25, seed=31)
    spec = ExperimentSpec(model=model, family="rrtls", trials=200, seed=31)
    comp = compare_selection_rules(spec, [0.0, 30.0])
    assert comp.theta_dependent
    w = comp.witness
    assert w["q1"] != w["q2"]
    # recheck the witness trial with the certificate helper
    assert w["t1"] == 0.0 and w["t2"] == 30.0


def test_witness_search_is_deterministic_and_verifiable():
    a = search_norm_dependence_witness(p=4, sigma2=0.25, seed=33)
    b = search_norm_dependence_witness(p=4, sigma2=0.25, seed=33)
    assert np.array_equal(a.scores, b.scores)
    assert (a.t1, a.t2, a.q1, a.q2) == (b.t1, b.t2, b.q1, b.q2)
    cert = norm_dependence_certificate([a.t1, a.t2], a.scores, a.sigma2, a.p)
    assert not cert.is_constant
    assert tuple(cert.q_stars) == (a.q1, a.q2)


# ---------------------------------------------------------------------------
# reference equivalence: short sweeps replayed trial by trial through the
# public per-trial functions, independently of how the engine loops
# ---------------------------------------------------------------------------

def _tails(v):
    suffix = np.cumsum(np.asarray(v, dtype=float)[::-1])[::-1]
    return np.append(suffix[1:], 0.0)


# Deterministic failure injection, so that failure counting is replayed
# too: a trial whose y[0] has floor(|y[0]| 1e6) % 5 == 0 is rejected as
# nonunique, per trial on the reference side (``_flaky``) and per row of
# the engine's stacked solver (``_inject_flaky_stack``).

def _flaky(solve):
    def flaky_solve(H_tilde, y):
        if int(np.floor(abs(y[0]) * 1e6)) % 5 == 0:
            raise NonUniqueTlsError("injected")
        return solve(H_tilde, y)

    return flaky_solve


def _inject_flaky_stack(monkeypatch):
    factor = harness_mod.tls_factor_stack

    def flaky_factor(A):
        U, core, codes = factor(A)
        injected = np.floor(np.abs(A[:, 0, -1]) * 1e6) % 5 == 0
        return U, core, np.where(injected, NonUniqueTlsError.code, codes)

    monkeypatch.setattr(harness_mod, "tls_factor_stack", flaky_factor)
    return _flaky(tls_solve)


def _replay_tls_front(model, seed, trial, solve, failures):
    real = sample_tls(model, seed, trial)
    try:
        est = solve(real.H_tilde, real.y)
    except RrtlsError as err:
        failures[err.code] = failures.get(err.code, 0) + 1
        return None
    basis = order_by_scores(est.retained_columns, real.y)
    return real.y, est, basis, augmented_scores(basis, est.discarded_column, real.y)


def _assert_matches_reference(res, counts, failures, sq, auto, theory):
    sq = np.array(sq)
    completed = sq.shape[0]
    assert res.completed == completed
    assert res.failures == failures
    assert np.array_equal(res.sel_freq, counts / completed)
    np.testing.assert_allclose(res.mse_emp, sq.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        res.mse_se, sq.std(axis=0, ddof=1) / np.sqrt(completed), rtol=1e-12
    )
    np.testing.assert_allclose(res.mse_theory, theory, rtol=1e-12)
    assert res.auto_mse == pytest.approx(float(np.mean(auto)), rel=1e-12)


def test_additive_run_matches_per_trial_reference():
    model = small_model()
    spec = ExperimentSpec(model=model, family="rrls", trials=300, seed=41)
    res = run(spec)
    counts, sq, auto, _, theory = _additive_reference(spec)
    _assert_matches_reference(res, counts, {}, sq, auto, theory)


def test_errors_in_variables_run_matches_per_trial_reference(monkeypatch):
    solve = _inject_flaky_stack(monkeypatch)
    model = tls_model(sigma2=0.09)
    spec = ExperimentSpec(model=model, family="rrtls", trials=300, seed=43)
    res = run(spec)
    counts, failures, sq, auto, theory, _ = _eiv_run_reference(spec, solve)
    assert failures.get("nonunique-tls", 0) > 0
    _assert_matches_reference(res, counts, failures, sq, auto, np.mean(theory, axis=0))


def test_selection_comparison_matches_per_trial_reference(monkeypatch):
    solve = _inject_flaky_stack(monkeypatch)
    model = tls_model(sigma2=0.25, seed=31)
    spec = ExperimentSpec(model=model, family="rrtls", trials=200, seed=31)
    grid = [0.0, 1.0, 30.0]
    comp = compare_selection_rules(spec, grid)
    counts, counts_alt, failures, witness = _grid_reference(spec, grid, solve)
    completed = spec.trials - sum(failures.values())
    assert failures.get("nonunique-tls", 0) > 0 and witness is not None
    assert comp.completed == completed
    assert comp.failures == failures
    assert np.array_equal(comp.q_star_freq, counts / completed)
    assert np.array_equal(comp.q_star_freq_alt, counts_alt / completed)
    assert comp.witness == witness


# ---------------------------------------------------------------------------
# chunk boundaries: runs that span several chunks, edge shapes and kept rows,
# against the same per-trial reference
# ---------------------------------------------------------------------------

def _additive_reference(spec):
    """Replay an additive run trial by trial: selection counts and the
    per-trial rows every aggregate is computed from.

    The squared error of the rank-r estimate P_r y is taken as the sum of
    its two orthogonal parts, |P_r (y - x)|^2 + |x - P_r x|^2.  Squaring
    P_r y - x directly cancels the signal against itself and leaves a
    rounding error of about eps |x| |P_r y - x|, which exceeds 1e-12 of the
    error when the noise is small against the signal (N = 3000, sigma2 =
    0.01), while each orthogonal part is accurate to a few eps."""
    model = spec.model
    p, x, sigma2 = model.p, model.x, model.sigma2
    ranks = np.arange(1, p + 1)
    U = svd(model.H).U
    counts = np.zeros(p, dtype=np.int64)
    sq, auto, risk = [], [], []
    for t in range(spec.trials):
        y = sample_ls(model, spec.seed, t).y
        basis = order_by_scores(U, y)
        selection = select_rank_ls(basis, sigma2, p)
        counts[selection.r_star - 1] += 1
        noise = [ls_reduced(basis, y - x, r) for r in ranks]
        bias = [x - ls_reduced(basis, x, r) for r in ranks]
        sq.append([float(n @ n + b @ b) for n, b in zip(noise, bias)])
        auto.append(sq[-1][selection.r_star - 1])
        risk.append(selection.objective)
    theory = _tails(order_by_scores(U, x).scores) + ranks * sigma2
    return counts, np.array(sq), auto, np.array(risk), theory


def _assert_additive_matches_reference(res, spec):
    """Counts exactly; means to rtol 1e-12.  Dispersion statistics get an
    absolute floor of 1e-12 times the matching power of the mean: the
    engine and the reference compute each trial's squared errors by
    different sums, which agree to about 1e-15 of their size, and spreads
    that are small against the mean magnify that difference."""
    counts, sq, auto, risk, theory = _additive_reference(spec)
    model, n = spec.model, spec.trials
    # Noiseless draws leave the full-rank arm at rounding level, which
    # only an absolute scale can compare.
    atol = 1e-12 * float(model.x @ model.x) if model.sigma2 == 0 else 0.0
    mean = sq.mean(axis=0)
    assert res.completed == n and res.failures == {}
    assert np.array_equal(res.sel_freq, counts / n)
    np.testing.assert_allclose(res.mse_emp, mean, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(res.mse_theory, theory, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(res.auto_mse, np.mean(auto), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(res.risk_estimate_mean, risk.mean(axis=0), rtol=1e-12,
                               atol=1e-12 * np.abs(risk).max())
    se = sq.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(res.mse_se - se) <= 1e-12 * (se + mean) + atol), (res.mse_se, se)
    if model.sigma2 == 0:
        assert res.moments is None
        return sq
    norm = sq[:, -1] / model.sigma2
    m, m2, m4 = norm.mean(), np.mean((norm - norm.mean()) ** 2), np.mean((norm - norm.mean()) ** 4)
    np.testing.assert_allclose(res.moments.mean, m, rtol=1e-12)
    np.testing.assert_allclose(res.moments.variance, norm.var(ddof=1), rtol=1e-12,
                               atol=1e-12 * m * m)
    # variance_se^2 * n = m4 - m2^2, compared before the square root
    np.testing.assert_allclose(res.moments.variance_se**2 * n, max(m4 - m2 * m2, 0.0),
                               rtol=1e-10, atol=1e-12 * m**4)
    return sq


def _chunk(N):
    return harness_mod._chunk_rows(N)


@pytest.mark.parametrize(
    "N, p, sigma2, trials",
    [
        (16, 4, 0.25, 2 * _chunk(16) + 1),
        (8192, 3, 0.25, 2 * _chunk(8192) + 1),
        (1, 1, 0.25, 300),
        (5, 1, 0.25, 2 * _chunk(5) + 1),
        (4, 4, 0.25, 300),
        (16, 4, 0.0, 2 * _chunk(16) + 1),
    ],
    ids=["ragged-last-chunk", "large-N-small-chunks", "p1-N1", "p1-N5", "N-equals-p", "noiseless"],
)
def test_additive_chunks_match_per_trial_reference(N, p, sigma2, trials):
    theta = np.linspace(1.0, -0.5, p)
    model = gaussian_model(N=N, p=p, theta=theta, sigma2=sigma2, seed=N + p)
    spec = ExperimentSpec(model=model, family="rrls", trials=trials, seed=47)
    _assert_additive_matches_reference(run(spec), spec)


def test_kept_rows_follow_trial_order_across_chunks(monkeypatch):
    rows = _spy_sq_rows(monkeypatch)
    N = 8192
    model = gaussian_model(N=N, p=3, theta=[1.0, -0.5, 0.25], sigma2=0.25, seed=49)
    trials = 2 * _chunk(N) + 3
    spec = ExperimentSpec(model=model, family="rrls", trials=trials, seed=49)
    res = run(spec)
    sq = _assert_additive_matches_reference(res, spec)
    raw = np.concatenate(rows)
    assert raw.shape == (trials, 3)
    np.testing.assert_allclose(raw, sq, rtol=1e-12)


def test_errors_in_variables_chunks_match_per_trial_reference(monkeypatch):
    solve = _inject_flaky_stack(monkeypatch)
    rows = _spy_sq_rows(monkeypatch)
    N = 4096
    model = gaussian_model(N=N, p=2, theta=[0.6, -0.8], sigma2=0.01, seed=51)
    trials = 2 * _chunk(N) + 5
    spec = ExperimentSpec(model=model, family="rrtls", trials=trials, seed=51)
    res = run(spec)
    counts, failures, sq, auto, theory, _ = _eiv_run_reference(spec, solve)
    assert failures.get("nonunique-tls", 0) > 0
    _assert_matches_reference(res, counts, failures, sq, auto, np.mean(theory, axis=0))
    np.testing.assert_allclose(np.concatenate(rows), sq, rtol=1e-12)


def test_risk_estimate_aggregates_the_corrected_bias_statistic():
    # ls.bias_estimate's corrected statistic at rank r is the risk estimate
    # minus sigma2 * r, so its mean and SE come off the run's aggregates
    model = small_model()
    p, sigma2 = model.p, model.sigma2
    trials = 2 * _chunk(16) + 1
    spec = ExperimentSpec(model=model, family="rrls", trials=trials, seed=67)
    res = run(spec)
    U = svd(model.H).U
    corrected = []
    for t in range(trials):
        y = sample_ls(model, spec.seed, t).y
        basis = order_by_scores(U, y)
        corrected.append([bias_estimate(basis, y, r, sigma2).b_hat_norm2_corrected
                          for r in range(1, p + 1)])
    corrected = np.array(corrected)
    mean = corrected.mean(axis=0)
    se = corrected.std(axis=0, ddof=1) / np.sqrt(trials)
    np.testing.assert_allclose(res.risk_estimate_mean - sigma2 * np.arange(1, p + 1), mean,
                               rtol=1e-12, atol=1e-12 * np.abs(corrected).max())
    assert np.all(np.abs(res.risk_estimate_se - se) <= 1e-12 * (se + np.abs(mean))), \
        (res.risk_estimate_se, se)


@settings(max_examples=25, deadline=None)
@given(
    N=st.sampled_from([1, 2, 5, 16, 3000, 9000]),
    p_draw=st.integers(1, 5),
    sigma2=st.sampled_from([0.0, 0.01, 0.25, 4.0]),
    trials=st.integers(2, 40),
    seed=st.integers(0, 2**16),
)
def test_additive_run_matches_reference_property(N, p_draw, sigma2, trials, seed):
    p = min(p_draw, N)
    model = gaussian_model(N=N, p=p, theta=np.linspace(2.0, -1.0, p), sigma2=sigma2, seed=seed)
    spec = ExperimentSpec(model=model, family="rrls", trials=trials, seed=seed)
    _assert_additive_matches_reference(run(spec), spec)


# ---------------------------------------------------------------------------
# the stacked errors-in-variables kernel against per-trial tls_solve
# ---------------------------------------------------------------------------

def _tls_rows():
    """Augmented matrices [H_tilde, y] (N=4, p=2): generic rows, a tied
    smallest singular pair, a singular core, and both at once."""
    rng = np.random.default_rng(61)
    rows = list(rng.standard_normal((3, 4, 3)))
    tie = np.zeros((4, 3))
    tie[0, 0], tie[1, 1], tie[2, 2] = 2.0, 1.0, 1.0  # singular values (2, 1, 1)
    singular_core = np.zeros((4, 3))
    singular_core[0, 0], singular_core[1, 2] = 1.0, 1.0  # H_tilde's second column is zero
    both = np.zeros((4, 3))
    both[0, 0] = 1.0  # singular values (1, 0, 0) and a zero core column
    return np.array(rows[:2] + [tie, singular_core] + rows[2:] + [both])


def test_stacked_factor_codes_match_tls_solve_row_by_row():
    A = _tls_rows()
    U, core, codes = tls_factor_stack(A)
    expected = []
    for i, row in enumerate(A):
        try:
            est = tls_solve(row[:, :2], row[:, 2])
        except RrtlsError as err:
            expected.append(err.code)
            continue
        expected.append("")
        # same retained span and corrected matrix as the per-trial solve
        Us = U[i, :, :2]
        np.testing.assert_allclose(Us @ Us.T, est.retained_columns @ est.retained_columns.T,
                                   atol=1e-12)
        np.testing.assert_allclose(Us @ core[i], est.H_corrected, atol=1e-12)
    assert expected == ["", "", "nonunique-tls", "degenerate-solution", "", "nonunique-tls"]
    assert codes.tolist() == expected


def _solve_code(row):
    p = row.shape[1] - 1
    try:
        tls_solve(row[:, :p], row[:, p])
    except RrtlsError as err:
        return err.code
    return ""


def _near_singular_core_stack(seed, N, p, exponents):
    """Generic augmented matrices (b, N, p + 1), one per entry of
    ``exponents``: a finite entry u scales one H_tilde column of its row by
    10**u, pushing that row's core U_s' H_tilde toward singular."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((len(exponents), N, p + 1))
    for row, u in zip(A, exponents):
        if np.isfinite(u):
            row[:, rng.integers(p)] *= 10.0 ** u
    return A


def _check_screen(A):
    """The stacked codes equal per-trial tls_solve's and the unscreened
    rule's (the SVD of every core), and the bound the screen reads holds:
    sigma_min(core) >= S_p |Vt[p, p]| and sigma_max(core) <= S_1 up to
    rounding.  Returns, per row, whether the bound alone decided it."""
    p = A.shape[2] - 1
    _, core, codes = tls_factor_stack(A)
    _, S, Vt = np.linalg.svd(A, full_matrices=False)
    core_svals = np.linalg.svd(core, compute_uv=False)
    nonunique = S[:, p - 1] - S[:, p] <= tls_mod.GAP_RTOL * S[:, 0]
    degenerate = core_svals[:, -1] <= tls_mod.DEGENERACY_RTOL * np.maximum(core_svals[:, 0], 1.0)
    exact = np.where(nonunique, "nonunique-tls", np.where(degenerate, "degenerate-solution", ""))
    assert codes.tolist() == exact.tolist() == [_solve_code(row) for row in A]
    bound = S[:, p - 1] * np.abs(Vt[:, p, p])
    assert np.all(core_svals[:, -1] >= bound - 1e-14 * S[:, 0])
    assert np.all(core_svals[:, 0] <= S[:, 0] * (1.0 + 1e-14))
    return bound > (tls_mod.DEGENERACY_SCREEN * tls_mod.DEGENERACY_RTOL
                    * np.maximum(S[:, 0], 1.0))


def test_screen_decides_rows_on_both_sides_of_the_degeneracy_threshold():
    # a grid of column scales from 1e-15 to 1e-6 beside generic rows: the
    # bound decides some rows, and the core SVD others on both sides of
    # DEGENERACY_RTOL
    exponents = np.concatenate([np.linspace(-15.0, -6.0, 37), np.full(8, np.inf)])
    A = _near_singular_core_stack(71, 9, 3, exponents)
    screened = _check_screen(A)
    codes = tls_factor_stack(A)[2]
    assert screened.any()
    assert {"", "degenerate-solution"} <= set(codes[~screened].tolist())


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shape=st.integers(1, 5).flatmap(lambda p: st.tuples(st.integers(p + 1, 10), st.just(p))),
    exponents=st.lists(st.one_of(st.floats(-15.0, -6.0), st.just(np.inf)), min_size=1,
                       max_size=12),
)
def test_screened_codes_match_tls_solve_property(seed, shape, exponents):
    N, p = shape
    _check_screen(_near_singular_core_stack(seed, N, p, exponents))


def _spy_core_svds(monkeypatch):
    """Record the input of every ``np.linalg.svd(..., compute_uv=False)``
    call, the fallback SVD of the cores the screen leaves undecided."""
    calls = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            calls.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def test_generic_run_makes_no_core_svd(monkeypatch):
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=512, seed=73)
    calls = _spy_core_svds(monkeypatch)
    res = run(spec)
    assert res.completed == 512
    assert calls == []


def test_singular_cores_take_the_core_svd(monkeypatch):
    A = _tls_rows()
    calls = _spy_core_svds(monkeypatch)
    _, core, codes = tls_factor_stack(A)
    checked = np.concatenate(calls)
    assert codes.tolist() == ["", "", "nonunique-tls", "degenerate-solution", "", "nonunique-tls"]

    def was_checked(i):
        return any(np.array_equal(core[i], c) for c in checked)

    assert was_checked(3) and was_checked(5)  # the singular core and both
    assert not any(was_checked(i) for i in (0, 1, 4))  # the generic rows


def _eiv_run_reference(spec, solve):
    """Replay an errors-in-variables run trial by trial: selection and
    failure counts and the per-trial rows every aggregate is computed from.

    As in ``_additive_reference``, each rank's squared error is the sum of
    its orthogonal parts |P_q (y - x)|^2 + |x - P_q x|^2, not the square of
    P_q y - x, whose cancellation of the signal against itself can exceed
    the 1e-12 relative tolerance when the noise is small."""
    model = spec.model
    p, x, sigma2, t_val = model.p, model.x, model.sigma2, model.theta_norm2
    ranks = np.arange(1, p + 1)
    counts = np.zeros(p, dtype=np.int64)
    failures = {}
    sq, auto, theory, formula = [], [], [], []
    for t in range(spec.trials):
        front = _replay_tls_front(model, spec.seed, t, solve, failures)
        if front is None:
            continue
        y, est, basis, scores = front
        q_star = q_objective(scores, sigma2, p, t_val, "oracle").q_star
        counts[q_star - 1] += 1
        noise = [tls_reduced(basis, y - x, q) for q in ranks]
        bias = [x - tls_reduced(basis, x, q) for q in ranks]
        sq.append([float(n @ n + b @ b) for n, b in zip(noise, bias)])
        auto.append(sq[-1][q_star - 1])
        d = np.append(basis.columns.T @ x, est.discarded_column @ x)
        theory.append(_tails(d * d)[:p] + ranks * sigma2)
        formula.append(mse_theoretical_tls_full(model, est))
    return counts, failures, np.array(sq), auto, theory, formula


def _assert_eiv_matches_reference(res, spec, solve):
    """Counts exactly, float aggregates to rtol 1e-12 (noiseless draws
    leave the full-rank arm and the formula at rounding level, compared on
    the absolute 1e-12 |x|^2 scale)."""
    counts, failures, sq, auto, theory, formula = _eiv_run_reference(spec, solve)
    model, n = spec.model, sq.shape[0]
    assert res.completed == n and res.failures == failures
    if n == 0:
        return sq
    atol = 1e-12 * float(model.x @ model.x) if model.sigma2 == 0 else 0.0
    assert np.array_equal(res.sel_freq, counts / n)
    mean = sq.mean(axis=0)
    np.testing.assert_allclose(res.mse_emp, mean, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(res.mse_theory, np.mean(theory, axis=0), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(res.auto_mse, np.mean(auto), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(res.tls_full_formula_mean, np.mean(formula), rtol=1e-12, atol=atol)
    if n >= 2:
        se = sq.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(res.mse_se - se) <= 1e-12 * (se + mean) + atol), (res.mse_se, se)
    return sq


def _grid_reference(spec, grid, solve):
    """Replay a selection-rule grid trial by trial."""
    model = spec.model
    p, sigma2 = model.p, model.sigma2
    counts = np.zeros((len(grid), p), dtype=np.int64)
    counts_alt = np.zeros_like(counts)
    failures = {}
    witness = None
    for t in range(spec.trials):
        front = _replay_tls_front(model, spec.seed, t, solve, failures)
        if front is None:
            continue
        scores = front[3]
        q = [q_objective(scores, sigma2, p, g, "oracle").q_star for g in grid]
        for i, g in enumerate(grid):
            counts[i, q[i] - 1] += 1
            counts_alt[i, int(np.argmin(q_objective_bias_recipe(scores, sigma2, p, g)))] += 1
        moved = [i for i in range(len(grid)) if q[i] != q[0]]
        if witness is None and moved:
            i = moved[0]
            witness = {"trial": t, "t1": grid[0], "t2": grid[i], "q1": q[0], "q2": q[i]}
    return counts, counts_alt, failures, witness


def _assert_grid_matches_reference(comp, spec, grid, solve):
    counts, counts_alt, failures, witness = _grid_reference(spec, grid, solve)
    completed = spec.trials - sum(failures.values())
    assert comp.completed == completed and comp.failures == failures
    if completed:
        assert np.array_equal(comp.q_star_freq, counts / completed)
        assert np.array_equal(comp.q_star_freq_alt, counts_alt / completed)
    assert comp.witness == witness and comp.theta_dependent == (witness is not None)


@pytest.mark.parametrize("N, p, sigma2", [(2, 1, 0.0), (3, 2, 0.25)],
                         ids=["p1-N-equals-p-plus-1-noiseless", "p2-noisy"])
def test_errors_in_variables_chunk_boundaries_match_reference(monkeypatch, N, p, sigma2):
    solve = _inject_flaky_stack(monkeypatch) if sigma2 else tls_solve
    rows = _spy_sq_rows(monkeypatch)
    model = gaussian_model(N=N, p=p, theta=np.linspace(1.0, -0.5, p), sigma2=sigma2, seed=63)
    trials = 2 * _chunk(N * (p + 1)) + 3
    spec = ExperimentSpec(model=model, family="rrtls", trials=trials, seed=63)
    res = run(spec)
    sq = _assert_eiv_matches_reference(res, spec, solve)
    raw = np.concatenate(rows)
    assert raw.shape == (sq.shape[0], p)
    scale = float(model.x @ model.x)
    np.testing.assert_allclose(raw, sq, rtol=1e-12, atol=1e-12 * scale)
    grid = [0.0, 1.0, 30.0]
    _assert_grid_matches_reference(compare_selection_rules(spec, grid), spec, grid, solve)


@settings(max_examples=25, deadline=None)
@given(
    N=st.sampled_from([2, 3, 6, 16, 3000, 9000]),
    p_draw=st.integers(1, 5),
    sigma2=st.sampled_from([0.0, 0.01, 0.25, 4.0]),
    trials=st.integers(2, 40),
    seed=st.integers(0, 2**16),
)
def test_errors_in_variables_run_matches_reference_property(N, p_draw, sigma2, trials, seed):
    p = min(p_draw, N - 1)
    model = gaussian_model(N=N, p=p, theta=np.linspace(2.0, -1.0, p), sigma2=sigma2, seed=seed)
    spec = ExperimentSpec(model=model, family="rrtls", trials=trials, seed=seed)
    grid = [0.0, 0.5, 3.0, 30.0]
    with pytest.MonkeyPatch.context() as mp:
        solve = _inject_flaky_stack(mp)
        _assert_eiv_matches_reference(run(spec), spec, solve)
        _assert_grid_matches_reference(compare_selection_rules(spec, grid), spec, grid, solve)


# ---------------------------------------------------------------------------
# draw hooks: a run draws trial 0 once through the per-trial sampler (the
# stream guard), then every trial once, in trial order, through the block
# sampler; both are looked up on the harness module at call time
# ---------------------------------------------------------------------------

def _count_draws(monkeypatch, name):
    calls = []
    original = getattr(harness_mod, name)

    def counted(model, seed, *trials):
        calls.append((seed, *trials))
        return original(model, seed, *trials)

    monkeypatch.setattr(harness_mod, name, counted)
    return calls


def _assert_blocks_tile(blocks, seed, trials):
    assert [b[0] for b in blocks] == [seed] * len(blocks)
    assert all(start < stop for _, start, stop in blocks)
    assert [t for _, start, stop in blocks for t in range(start, stop)] == list(range(trials))


def test_additive_run_draws_each_trial_once_in_order(monkeypatch):
    guard = _count_draws(monkeypatch, "sample_ls")
    blocks = _count_draws(monkeypatch, "sample_ls_block")
    N = 8192
    model = gaussian_model(N=N, p=2, theta=[1.0, 0.5], sigma2=0.25, seed=53)
    trials = 2 * _chunk(N) + 1
    run(ExperimentSpec(model=model, family="ls", trials=trials, seed=53))
    assert guard == [(53, 0)]
    assert len(blocks) == 3
    _assert_blocks_tile(blocks, 53, trials)


@pytest.mark.parametrize("grid", [None, [0.0, 3.0]], ids=["run", "grid"])
def test_errors_in_variables_draws_each_trial_once_in_order(monkeypatch, grid):
    guard = _count_draws(monkeypatch, "sample_tls")
    blocks = _count_draws(monkeypatch, "sample_tls_block")
    model = gaussian_model(N=1024, p=3, theta=[1.0, 0.5, -0.5], sigma2=0.04, seed=55)
    trials = 2 * _chunk(1024 * 4) + 5
    spec = ExperimentSpec(model=model, family="rrtls", trials=trials, seed=55)
    if grid is None:
        run(spec)
    else:
        compare_selection_rules(spec, grid)
    assert guard == [(55, 0)]
    assert len(blocks) == 3
    _assert_blocks_tile(blocks, 55, trials)


_GUARD_CASES = [("sample_ls", "sample_ls_block", "rrls", None),
                ("sample_tls", "sample_tls_block", "rrtls", None),
                ("sample_tls", "sample_tls_block", "rrtls", [0.0, 3.0])]
_GUARD_IDS = ["additive", "errors-in-variables", "grid"]


def _run_or_compare(spec, grid):
    return run(spec) if grid is None else compare_selection_rules(spec, grid)


@pytest.mark.parametrize("sample_name, block_name, family, grid", _GUARD_CASES, ids=_GUARD_IDS)
def test_stream_guard_rejects_a_block_that_departs_from_the_per_trial_stream(
        monkeypatch, sample_name, block_name, family, grid):
    original = getattr(harness_mod, block_name)

    def flipped(model, seed, start, stop):
        block = original(model, seed, start, stop)
        block[0].reshape(-1).view(np.uint64)[-1] ^= 1
        return block

    monkeypatch.setattr(harness_mod, block_name, flipped)
    spec = ExperimentSpec(model=tls_model(), family=family, trials=20, seed=57)
    with pytest.raises(RuntimeError, match="departs from the per-trial sampler"):
        _run_or_compare(spec, grid)


class _Reached(BaseException):
    pass


@pytest.mark.parametrize("sample_name, block_name, family, grid", _GUARD_CASES, ids=_GUARD_IDS)
def test_per_trial_sampler_is_reached_before_the_block_sampler(
        monkeypatch, sample_name, block_name, family, grid):
    # the order a set-up probe relies on: patching the per-trial sampler
    # stops a run before any block is drawn
    def reached(*args):
        raise _Reached

    def refuse(*args):
        raise AssertionError("a block was drawn first")

    monkeypatch.setattr(harness_mod, sample_name, reached)
    monkeypatch.setattr(harness_mod, block_name, refuse)
    spec = ExperimentSpec(model=tls_model(), family=family, trials=20, seed=59)
    with pytest.raises(_Reached):
        _run_or_compare(spec, grid)


# ---------------------------------------------------------------------------
# invalid numbers fail before the first trial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trials", [True, 2.5, "3", None])
def test_trials_must_be_an_integer(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        ExperimentSpec(model=small_model(), family="ls", trials=trials, seed=1)


@pytest.mark.parametrize("bound", [float("nan"), float("inf")])
@pytest.mark.parametrize("tls_mode", ["bound", "oracle"])
def test_bound_must_be_finite(bound, tls_mode):
    with pytest.raises(ValueError, match="bound must be finite"):
        ExperimentSpec(model=tls_model(), family="rrtls", trials=10, seed=1,
                       tls_mode=tls_mode, bound=bound)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_comparison_rejects_non_finite_grid(no_draws, bad):
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=10, seed=1)
    with pytest.raises(ValueError, match="finite"):
        compare_selection_rules(spec, [0.0, bad])


@pytest.mark.parametrize("seed", [True, -1, 1.5, "3", None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ExperimentSpec(model=small_model(), family="ls", trials=10, seed=seed)


@pytest.mark.parametrize("family", ["tls", "rrtls"])
@pytest.mark.parametrize("consume", [run, lambda spec: compare_selection_rules(spec, [0.0, 1.0])],
                         ids=["run", "grid"])
def test_errors_in_variables_spec_needs_a_spare_row(no_draws, family, consume):
    model = gaussian_model(N=4, p=4, theta=[1.0, -0.5, 0.25, 2.0], sigma2=0.25, seed=65)
    with pytest.raises(ValueError, match=r"needs N >= p \+ 1 rows .* got N=4, p=4"):
        consume(ExperimentSpec(model=model, family=family, trials=10, seed=65))
