import dataclasses
import sys
import threading
import time
import warnings

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
    select_rank_ls,
    mse_theoretical_tls_full,
    svd,
    tls_reduced,
    tls_solve,
    verify_chi_square,
)
from rrtls.harness import VecStats
from rrtls.model import sample_tls_block
from rrtls.svdtools import ORTHO_TOL
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
    """Record the per-rank squared errors (b, p) of every chunk ``run``
    merges into its tally, in merge order (trial order); the grid report's
    chunks have no arms."""
    rows = []
    merge = harness_mod._Tally.merge

    def spy(tally, result):
        if "sq" in result[2]:  # the chunk result's arms
            rows.append(result[2]["sq"])
        return merge(tally, result)

    monkeypatch.setattr(harness_mod._Tally, "merge", spy)
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


@pytest.mark.parametrize("field, value", [("trials", -5), ("family", "tls"), ("tls_mode", "bogus")])
def test_spec_fields_cannot_be_reassigned(field, value):
    # reassignment would get round the rules __post_init__ checks
    spec = ExperimentSpec(model=small_model(), family="rrls", trials=10, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, field, value)


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

    def flaky_factor(A, x):
        # deterministic failure injection: the error path is measure-zero
        # under generic sampling, so force it for odd-sum observations
        factor = real_factor(A, x)
        injected = np.floor(np.abs(A[:, 0, -1]) * 1e6) % 2 == 1
        return factor._replace(codes=np.where(injected, NonUniqueTlsError.code, factor.codes))

    monkeypatch.setattr(harness_mod, "tls_factor_stack", flaky_factor)
    spec = ExperimentSpec(model=tls_model(), family="tls", trials=100, seed=35)
    res = run(spec)
    assert res.failures.get("nonunique-tls", 0) > 0
    assert res.completed + res.failures["nonunique-tls"] == 100
    # aggregates come from completed trials only
    assert np.isfinite(res.mse_emp).all()


def test_kept_rows_keep_their_shape_when_every_trial_is_rejected(monkeypatch):
    factor = harness_mod.tls_factor_stack

    def reject_all(A, x):
        result = factor(A, x)
        return result._replace(codes=np.full(result.codes.shape, NonUniqueTlsError.code))

    monkeypatch.setattr(harness_mod, "tls_factor_stack", reject_all)
    rows = _spy_sq_rows(monkeypatch)
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=10, seed=69)
    res = run(spec)
    assert res.completed == 0 and res.failures == {"nonunique-tls": 10}
    assert np.concatenate(rows).shape == (0, 4)  # no chunk merges rows into the totals
    # no aggregate without a completed trial
    assert res.risk_estimate_mean is None and res.risk_estimate_se is None
    assert res.moments is None and res.tls_full_formula_mean is None
    for column in (res.mse_emp, res.mse_se, res.mse_theory):
        assert column.shape == (4,) and np.isnan(column).all()
    assert np.isnan(res.auto_mse) and np.isnan(res.auto_se)
    assert np.array_equal(res.sel_freq, np.zeros(4))


@pytest.mark.parametrize(
    "family, sigma2, trials, has_risk, has_moments, has_formula",
    [
        ("rrls", 0.25, 2, True, True, False),
        ("rrls", 0.25, 1, True, False, False),
        ("ls", 0.0, 3, True, False, False),
        ("tls", 0.25, 3, False, False, True),
    ],
    ids=["rrls-2-trials", "rrls-1-trial", "ls-noiseless", "tls"],
)
def test_optional_result_fields_follow_the_aggregated_arms(family, sigma2, trials, has_risk,
                                                          has_moments, has_formula):
    spec = ExperimentSpec(model=tls_model(sigma2=sigma2), family=family, trials=trials, seed=71)
    res = run(spec)
    assert res.completed == trials
    assert (res.risk_estimate_mean is not None) == has_risk
    assert (res.risk_estimate_se is not None) == has_risk
    if has_risk:
        assert res.risk_estimate_mean.shape == res.risk_estimate_se.shape == (4,)
    assert (res.moments is not None) == has_moments
    if has_moments:
        assert res.moments.n == trials and res.moments.dof == 4
    if has_formula:
        assert isinstance(res.tls_full_formula_mean, float)
    else:
        assert res.tls_full_formula_mean is None


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
        (True, 4, 1.0, "sigma2 must be finite and > 0"),
        ("1", 4, 1.0, "sigma2 must be finite and > 0"),
        (1.0, 4, float("nan"), "errors must be finite"),
        (1.0, 4, float("inf"), "errors must be finite"),
        (1.0, 0, 1.0, "dof must be a positive integer"),
        (1.0, -1, 1.0, "dof must be a positive integer"),
        (1.0, 2.5, 1.0, "dof must be a positive integer"),
    ],
    ids=["sigma2-nan", "sigma2-inf", "sigma2-bool", "sigma2-str", "entry-nan", "entry-inf",
         "dof-0", "dof-negative", "dof-fraction"],
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


def test_comparison_rejects_a_bound_mode_before_drawing(no_draws):
    # the grid report evaluates the oracle rule at every grid value, so a
    # bound would be ignored
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=10, seed=1,
                          tls_mode="bound", bound=2.0)
    with pytest.raises(ValueError, match="tls_mode"):
        compare_selection_rules(spec, [0.0, 1.0])


@pytest.mark.parametrize("grid", [[], [0.0, float("nan")], [0.0, -1.0], 2.0, [0.0, float("inf")],
                                  None, "0,1"],
                         ids=["empty", "nan", "negative", "scalar", "inf", "none", "string"])
def test_grid_functions_reject_a_bad_grid_by_name(no_draws, grid):
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=10, seed=1)
    with pytest.raises(ValueError, match=r"^grid "):
        compare_selection_rules(spec, grid)


def test_single_grid_point_never_flags():
    spec = ExperimentSpec(model=tls_model(), family="rrtls", trials=50, seed=27)
    comp = compare_selection_rules(spec, [1.0])
    assert not comp.theta_dependent
    assert comp.witness is None and comp.moved == 0
    assert comp.q_star_freq.shape == (1, 4)


def test_noiseless_selection_is_grid_invariant():
    model = tls_model(sigma2=0.0)
    spec = ExperimentSpec(model=model, family="rrtls", trials=50, seed=29)
    comp = compare_selection_rules(spec, [0.0, 1.0, 5.0, 20.0])
    assert not comp.theta_dependent
    assert np.array_equal(comp.q_star_freq[0], comp.q_star_freq[-1])


def _per_trial_ranks(model, seed, trial, grid):
    # the oracle rank of each grid value for one trial, from its per-trial
    # scores
    scores = _replay_tls_front(model, seed, trial, tls_solve, {})[3]
    return [q_objective(scores, model.sigma2, model.p, t, "oracle").q_star for t in grid]


def test_noisy_selection_depends_on_norm():
    # noise scores comparable to the threshold make the selected rank move
    # with the assumed parameter norm on at least one paired realization
    model = tls_model(sigma2=0.25, seed=31)
    spec = ExperimentSpec(model=model, family="rrtls", trials=200, seed=31)
    comp = compare_selection_rules(spec, [0.0, 30.0])
    assert comp.theta_dependent and comp.moved > 0
    w = comp.witness
    assert w["q1"] != w["q2"]
    assert w["t1"] == 0.0 and w["t2"] == 30.0
    # recheck the witness trial through the per-trial pipeline
    assert _per_trial_ranks(model, 31, w["trial"], [w["t1"], w["t2"]]) == [w["q1"], w["q2"]]


@pytest.mark.parametrize("grid", [[0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0], [0.5, 0.5, 0.0, 30.0]],
                         ids=["bench-grid", "repeated-first-value"])
def test_comparison_witness_is_the_certificate_witness_of_its_trial(grid):
    # the witness is read from the trial's row of selected ranks; per-trial
    # q_objective at each grid value, on that trial's scores, moves first
    # between the first grid value and the same second one
    model = gaussian_model(N=16, p=4, theta=[1.0, -0.5, 0.25, 2.0], sigma2=0.25, seed=3)
    comp = compare_selection_rules(ExperimentSpec(model=model, family="rrtls", trials=512, seed=3),
                                   grid)
    w = comp.witness
    q = _per_trial_ranks(model, 3, w["trial"], grid)
    i = next(i for i, qi in enumerate(q) if qi != q[0])
    assert [(k, type(v)) for k, v in w.items()] == [
        ("trial", int), ("t1", float), ("t2", float), ("q1", int), ("q2", int)]
    assert (w["t1"], w["t2"], w["q1"], w["q2"]) == (grid[0], grid[i], q[0], q[i])


_BENCH_GRID = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0]


def _bench_grid_model():
    # the tls-grid benchmark's model
    return gaussian_model(N=16, p=4, theta=[1.0, -0.5, 0.25, 2.0], sigma2=0.25, seed=3)


@pytest.mark.parametrize("grid, moves", [
    (_BENCH_GRID, True),
    ([0.0, 5.3125], True),
    ([0.5, 0.5, 0.0, 30.0], True),
    (_BENCH_GRID[::-1], True),
    ([1.0], False),
    ([2.0, 2.0], False),
], ids=["bench-grid", "zero-and-true-norm", "repeated-first-value", "descending", "one-value",
        "one-value-twice"])
def test_move_count_matches_a_per_trial_recount(grid, moves):
    # the tls-grid benchmark's model and sweep size: a trial moves when its
    # per-trial q_objective ranks differ between two grid values, and one
    # distinct grid value moves none
    model = _bench_grid_model()
    spec = ExperimentSpec(model=model, family="rrtls", trials=512, seed=3)
    comp = compare_selection_rules(spec, grid)
    _assert_grid_matches_reference(comp, spec, grid, tls_solve)
    assert (0 < comp.moved < comp.completed) == moves
    assert comp.theta_dependent == moves == (comp.witness is not None)


@pytest.mark.parametrize("reorder", [
    lambda g: g[::-1],
    lambda g: g[3:] + g[:3],
    lambda g: [g[i] for i in (5, 0, 7, 2, 6, 1, 4, 3)],
    lambda g: g + g,
    lambda g: [g[0]] + g + [g[-1], g[4]],
], ids=["reversed", "rotated", "shuffled", "doubled", "with-repeats"])
def test_move_count_does_not_depend_on_grid_order_or_repeats(reorder):
    # a trial moves when its ranks over the grid are not all equal, which no
    # reordering or repeat of the grid values changes; each grid value keeps
    # its row of rank frequencies wherever it stands
    spec = ExperimentSpec(model=_bench_grid_model(), family="rrtls", trials=512, seed=3)
    base = compare_selection_rules(spec, _BENCH_GRID)
    grid = reorder(list(_BENCH_GRID))
    comp = compare_selection_rules(spec, grid)
    assert comp.moved == base.moved > 0 and comp.completed == base.completed
    for i, t in enumerate(grid):
        assert np.array_equal(comp.q_star_freq[i], base.q_star_freq[_BENCH_GRID.index(t)])


@pytest.mark.parametrize("splits", [[], [1], [3, 5], [1, 2, 3, 4, 5, 6, 7]],
                         ids=["one-chunk", "first-alone", "three-chunks", "one-trial-chunks"])
def test_tally_counts_movers_across_chunks(splits):
    # eight trials on a two-norm grid: trials 2, 5 and 6 move, and however
    # the trials are chunked the tally counts them once and names trial 2
    ranks = np.array([[0, 1, 2, 3, 0, 1, 2, 3],
                      [0, 1, 1, 3, 0, 3, 0, 3]])
    tally = harness_mod._Tally(2, 4)
    bounds = [0] + splits + [8]
    for a, b in zip(bounds, bounds[1:]):
        tally.merge((np.arange(a, b), ranks[:, a:b], {}, {}))
    assert tally.completed == 8 and tally.moved == 3
    assert tally.mover[0] == 2 and tally.mover[1].tolist() == [3, 2]
    assert tally.counts.tolist() == [[2, 2, 2, 2], [3, 2, 0, 3]]


def test_tally_of_one_norm_never_moves():
    tally = harness_mod._Tally(1, 4)
    tally.merge((np.arange(4), np.array([[0, 1, 2, 3]]), {}, {}))
    assert tally.moved == 0 and tally.mover is None


@pytest.mark.parametrize("k", [-20, -3, 1, 4, 30])
@pytest.mark.parametrize("family", ["rrls", "rrtls"])
def test_run_is_scale_equivariant(family, k):
    # scaling theta (additive) or H (errors-in-variables) by 2**k and sigma2
    # by 4**k scales every draw by 2**k exactly: the selected ranks stay and
    # the squared errors scale by 4**k
    base = gaussian_model(N=16, p=4, theta=[1.0, -0.5, 0.25, 2.0], sigma2=0.25, seed=3)
    c = 2.0**k
    if family == "rrls":
        scaled = MeasurementModel(H=base.H, theta=c * base.theta, sigma2=c * c * base.sigma2)
    else:
        scaled = MeasurementModel(H=c * base.H, theta=base.theta, sigma2=c * c * base.sigma2)
    for seed in range(3):
        res = run(ExperimentSpec(model=base, family=family, trials=2000, seed=seed))
        res_scaled = run(ExperimentSpec(model=scaled, family=family, trials=2000, seed=seed))
        assert np.array_equal(res_scaled.sel_freq, res.sel_freq)
        assert res_scaled.failures == res.failures
        np.testing.assert_allclose(res_scaled.mse_emp, c * c * res.mse_emp, rtol=1e-12)
        np.testing.assert_allclose(res_scaled.mse_se, c * c * res.mse_se, rtol=1e-12)


@pytest.mark.parametrize("shape, threshold", [
    ((4,), 0.5), ((4,), np.arange(8) / 8), ((1024, 4), 0.5), ((8, 512, 4), np.arange(8)[:, None] / 8),
], ids=["rule", "certificate", "chunk", "grid"])
def test_count_kernels_match_count_nonzero(shape, threshold):
    # the matmul count and the bincount tally against the np.count_nonzero
    # forms they replaced: equal arrays of the same type and dtype, on
    # dyadic scores that tie the thresholds
    scores = np.random.default_rng(81).integers(0, 5, shape) / 4
    counted = harness_mod._count_rank(scores, threshold)
    reference = np.maximum(np.count_nonzero(scores > np.asarray(threshold)[..., None], axis=-1), 1)
    assert type(counted) is type(reference) and counted.dtype == reference.dtype
    assert np.array_equal(counted, reference)
    if counted.ndim == 2:
        p = shape[-1]
        tally = harness_mod._rank_tally(counted - 1, p)
        reference = np.count_nonzero((counted - 1)[..., None] == np.arange(p), axis=1)
        assert tally.dtype == reference.dtype and np.array_equal(tally, reference)


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

    def flaky_factor(A, x):
        result = factor(A, x)
        injected = np.floor(np.abs(A[:, 0, -1]) * 1e6) % 5 == 0
        return result._replace(codes=np.where(injected, NonUniqueTlsError.code, result.codes))

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
    counts, counts_alt, failures, witness, moved = _grid_reference(spec, grid, solve)
    completed = spec.trials - sum(failures.values())
    assert failures.get("nonunique-tls", 0) > 0 and witness is not None
    assert comp.completed == completed
    assert comp.failures == failures
    assert np.array_equal(comp.q_star_freq, counts / completed)
    assert np.array_equal(comp.q_star_freq, counts_alt / completed)
    assert comp.witness == witness and comp.moved == moved


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


def _assert_factor_matches_solve(A, x, factor, tol):
    """The factor's codes equal per-trial tls_solve's row by row, and each
    solved row's U'y, U'x, residual |x - U_s U_s'x|^2 and core U_s' H_tilde
    equal those from tls_solve's SVD within tol times their scale (S_1 for
    U'y and the core, |x| for U'x, |x|^2 for the residual), each column of
    U up to its sign."""
    p = A.shape[2] - 1
    codes = []
    for i, row in enumerate(A):
        try:
            est = tls_solve(row[:, :p], row[:, p])
        except RrtlsError as err:
            codes.append(err.code)
            continue
        codes.append("")
        U, top, size = est.augmented_svd.U, est.augmented_svd.S[0], float(np.linalg.norm(x))
        coef, coef_x, core = row[:, p] @ U, x @ U, U[:, :p].T @ row[:, :p]
        rho = x - U[:, :p] @ coef_x[:p]
        agree = factor.coef[i] * coef + factor.coef_x[i] * coef_x
        agree[:p] += np.sum(factor.core[i] * core, axis=1)
        sign = np.where(agree < 0, -1.0, 1.0)
        np.testing.assert_allclose(sign * factor.coef[i], coef, rtol=0, atol=tol * top)
        np.testing.assert_allclose(sign * factor.coef_x[i], coef_x, rtol=0, atol=tol * size)
        np.testing.assert_allclose(sign[:p, None] * factor.core[i], core, rtol=0, atol=tol * top)
        np.testing.assert_allclose(factor.resid[i], rho @ rho, rtol=0, atol=tol * size**2)
    assert factor.codes.tolist() == codes
    return codes


def test_stacked_factor_codes_match_tls_solve_row_by_row():
    A = _tls_rows()
    x = np.random.default_rng(62).standard_normal(A.shape[1])
    factor = tls_factor_stack(A, x)
    codes = _assert_factor_matches_solve(A, x, factor, 1e-12)
    assert codes == ["", "", "nonunique-tls", "degenerate-solution", "", "nonunique-tls"]
    # the generic rows take the Gram route, the rejected ones the SVD of A
    assert factor.gram.tolist() == [code == "" for code in codes]


@pytest.mark.parametrize("N, p, rows", [(256, 32, 7), (16, 4, 819)], ids=["tls-wide", "tls-grid"])
def test_factor_stack_matches_tls_solve_on_a_benchmark_chunk(N, p, rows):
    # one chunk of each benchmark shape, every row on the Gram route
    theta = np.linspace(1.0, -0.5, p)
    model = gaussian_model(N=N, p=p, theta=theta, sigma2=0.25, seed=3)
    A = sample_tls_block(model, 3, 0, rows)
    factor = tls_factor_stack(A, model.x)
    assert factor.gram.all()
    _assert_factor_matches_solve(A, model.x, factor, ORTHO_TOL)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shape=st.integers(1, 6).flatmap(lambda p: st.tuples(st.integers(1, 9), st.integers(p + 1, 40),
                                                         st.just(p))),
    scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
)
def test_factor_stack_matches_tls_solve_property(seed, shape, scale):
    b, N, p = shape
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((b, N, p + 1))
    x = scale * rng.standard_normal(N)
    factor = tls_factor_stack(A, x)
    if scale in (1e-150, 1e150):  # the Gram matrix would square the scale past 1e+-300
        assert not factor.gram.any()
    _assert_factor_matches_solve(A, x, factor, ORTHO_TOL)


@pytest.mark.parametrize("sigma2", [0.0, 1e-6], ids=["noiseless", "near-noiseless"])
def test_near_noiseless_chunks_take_the_svd_of_A(sigma2):
    # criterion 7's noiseless 20x5 draws and criterion 5's noise level on
    # its planted model: S_{p+1} / S_1 falls below the Gram screen
    models = [gaussian_model(N=20, p=5, theta=[1.0, -0.5, 0.25, 2.0, 0.5], sigma2=sigma2, seed=81),
              planted_model(N=16, coefficients=[2.0, 1.0, 0.0, 0.0], sigma2=sigma2, seed=82)]
    for model in models:
        A = sample_tls_block(model, 83, 0, 64)
        factor = tls_factor_stack(A, model.x)
        assert not factor.gram.any()
        assert factor.codes.tolist() == [_solve_code(row) for row in A]


def _spy_gram_factors(monkeypatch):
    """Record the order n of every square stack (b, n, n) passed to
    ``np.linalg.eigh`` and ``np.linalg.svd``: p + 1 for Gram matrices, p
    for cores (a stack of A is not square)."""
    calls = {"eigh": [], "svd": []}
    for name in calls:
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            if a.ndim == 3 and a.shape[1] == a.shape[2]:
                calls[_name].append(a.shape[1])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("p, factor_name", [(24, "eigh"), (25, "svd")],
                         ids=["order-25-eigh", "order-26-svd"])
def test_gram_factor_switches_at_the_eigensolver_bound(monkeypatch, p, factor_name):
    # order p + 1 = 25 takes the symmetric eigensolver, 26 the SVD of G
    # (above 25 the eigensolver starts BLAS threads); both match tls_solve
    model = gaussian_model(N=4 * (p + 1), p=p, theta=np.linspace(1.0, -0.5, p), sigma2=0.25,
                           seed=5)
    A = sample_tls_block(model, 5, 0, 9)
    calls = _spy_gram_factors(monkeypatch)
    factor = tls_factor_stack(A, model.x)
    assert calls == {"eigh": [], "svd": [], factor_name: [p + 1]}
    assert factor.gram.all()
    _assert_factor_matches_solve(A, model.x, factor, ORTHO_TOL)


def test_duplicated_column_takes_the_svd_of_A_without_a_warning():
    # a duplicated H_tilde column makes G singular; the eigensolver returns
    # rounded eigenvalues below 0 for some rows, which the factor clamps
    # instead of taking their square root
    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, 16, 5))
    A[:, :, 1] = A[:, :, 0]
    assert (np.linalg.eigh(np.swapaxes(A, 1, 2) @ A)[0][:, 0] < 0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = tls_factor_stack(A, np.ones(16))
    assert not factor.gram.any()
    assert factor.codes.tolist() == [_solve_code(row) for row in A]
    assert set(factor.codes.tolist()) == {"degenerate-solution"}


@pytest.mark.parametrize("p", [2, 4, 25], ids=["mixed-routes", "tls-grid", "order-26-svd"])
def test_factor_without_x_matches_the_full_factor(p):
    # both routes: the mixed stack holds rejected rows, which take svd(A)
    if p == 2:
        A = _tls_rows()
    else:
        model = gaussian_model(N=4 * (p + 1), p=p, theta=np.linspace(1.0, -0.5, p),
                               sigma2=0.25, seed=7)
        A = sample_tls_block(model, 7, 0, 64)
    full = tls_factor_stack(A, np.random.default_rng(8).standard_normal(A.shape[1]))
    bare = tls_factor_stack(A)
    assert bare.coef_x is None and bare.resid is None
    for name in ("coef", "core", "codes", "gram"):
        assert getattr(bare, name).tobytes() == getattr(full, name).tobytes(), name
    assert full.gram.any() and (p != 2 or not full.gram.all())


def test_selection_comparison_does_not_depend_on_the_signal_fields(monkeypatch):
    # the grid report factors without x; with x, on a model with rejected
    # trials, every field is the same
    _inject_flaky_stack(monkeypatch)
    factor, signals = harness_mod.tls_factor_stack, []

    def recorded(A, x):
        signals.append(x)
        return factor(A, x)

    monkeypatch.setattr(harness_mod, "tls_factor_stack", recorded)
    spec = ExperimentSpec(model=tls_model(sigma2=0.25, seed=31), family="rrtls", trials=3000,
                          seed=31)
    grid = [0.0, 0.5, 1.0, 3.0, 30.0]
    bare = compare_selection_rules(spec, grid)
    assert len(signals) > 1 and all(x is None for x in signals)
    chunk = harness_mod._eiv_chunk
    monkeypatch.setattr(harness_mod, "_eiv_chunk",
                        lambda spec, norms, signal, start, stop: chunk(spec, norms, True, start, stop))
    full = compare_selection_rules(spec, grid)
    assert bare.failures.get("nonunique-tls", 0) > 0 and bare.witness is not None
    assert _as_bytes(bare) == _as_bytes(full)


def test_run_is_the_one_norm_case_of_the_grid_report(monkeypatch):
    # run() selects by the grid report's rule at the one norm it assumes:
    # the model's theta'theta in oracle mode, the bound in bound mode; with
    # rejected trials, the counts, completions and rejections are the same
    _inject_flaky_stack(monkeypatch)
    model = tls_model(sigma2=0.25, seed=31)
    oracle = ExperimentSpec(model=model, family="rrtls", trials=3000, seed=31)
    freqs = []
    for spec, norm in ((oracle, model.theta_norm2),
                       (dataclasses.replace(oracle, tls_mode="bound", bound=3.0), 3.0)):
        res = run(spec)
        comp = compare_selection_rules(oracle, [norm])
        assert res.failures.get("nonunique-tls", 0) > 0
        assert res.completed == comp.completed and res.failures == comp.failures
        assert res.sel_freq.tobytes() == comp.q_star_freq[0].tobytes()
        freqs.append(res.sel_freq)
    assert not np.array_equal(*freqs)  # the two norms select differently


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
    rounding.  Returns, per row, whether the bound alone decided it and
    whether the Gram route did."""
    p = A.shape[2] - 1
    factor = tls_factor_stack(A, np.ones(A.shape[1]))
    core, codes = factor.core, factor.codes
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
                    * np.maximum(S[:, 0], 1.0)), factor.gram


def test_screen_decides_rows_on_both_sides_of_the_degeneracy_threshold():
    # a grid of column scales from 1e-15 to 1e-6 beside generic rows: the
    # bound decides some rows, and the core SVD others on both sides of
    # DEGENERACY_RTOL
    exponents = np.concatenate([np.linspace(-15.0, -6.0, 37), np.full(8, np.inf)])
    A = _near_singular_core_stack(71, 9, 3, exponents)
    screened, gram = _check_screen(A)
    codes = np.array([_solve_code(row) for row in A])
    assert screened.any()
    assert {"", "degenerate-solution"} <= set(codes[~screened].tolist())
    assert not gram[np.isfinite(exponents)].any()  # a scaled column takes the SVD of A


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shape=st.integers(1, 5).flatmap(lambda p: st.tuples(st.integers(p + 1, 10), st.just(p))),
    exponents=st.lists(st.one_of(st.floats(-15.0, -6.0), st.just(np.inf)), min_size=1,
                       max_size=12),
)
def test_screened_codes_match_tls_solve_property(seed, shape, exponents):
    N, p = shape
    _, gram = _check_screen(_near_singular_core_stack(seed, N, p, exponents))
    assert not gram[np.isfinite(exponents)].any()


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
    factor = tls_factor_stack(A, np.ones(A.shape[1]))
    core, codes = factor.core, factor.codes
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
    moved = 0
    for t in range(spec.trials):
        front = _replay_tls_front(model, spec.seed, t, solve, failures)
        if front is None:
            continue
        scores = front[3]
        q = [q_objective(scores, sigma2, p, g, "oracle").q_star for g in grid]
        for i, g in enumerate(grid):
            counts[i, q[i] - 1] += 1
            counts_alt[i, int(np.argmin(q_objective_bias_recipe(scores, sigma2, p, g)))] += 1
        movers = [i for i in range(len(grid)) if q[i] != q[0]]
        moved += bool(movers)
        if witness is None and movers:
            i = movers[0]
            witness = {"trial": t, "t1": grid[0], "t2": grid[i], "q1": q[0], "q2": q[i]}
    return counts, counts_alt, failures, witness, moved


def _assert_grid_matches_reference(comp, spec, grid, solve):
    counts, counts_alt, failures, witness, moved = _grid_reference(spec, grid, solve)
    completed = spec.trials - sum(failures.values())
    assert comp.completed == completed and comp.failures == failures and comp.moved == moved
    if completed:
        assert np.array_equal(comp.q_star_freq, counts / completed)
        assert np.array_equal(comp.q_star_freq, counts_alt / completed)
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
    # Chunk 0 is drawn first, on the calling thread; errors-in-variables
    # lanes may draw the other chunks in any order, but each trial once.
    assert blocks[0][1] == 0
    assert [b[0] for b in blocks] == [seed] * len(blocks)
    assert all(start < stop for _, start, stop in blocks)
    tiled = sorted(blocks, key=lambda b: b[1])
    assert [t for _, start, stop in tiled for t in range(start, stop)] == list(range(trials))


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
    assert blocks == sorted(blocks)  # additive chunks take no lanes: trial order


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


def _flip_first_row(monkeypatch, block_name):
    # the block sampler's first row departs from the per-trial stream by 1 ulp
    original = getattr(harness_mod, block_name)

    def flipped(model, seed, start, stop):
        block = original(model, seed, start, stop)
        block[0].reshape(-1).view(np.uint64)[-1] ^= 1
        return block

    monkeypatch.setattr(harness_mod, block_name, flipped)


@pytest.mark.parametrize("sample_name, block_name, family, grid", _GUARD_CASES, ids=_GUARD_IDS)
def test_stream_guard_rejects_a_block_that_departs_from_the_per_trial_stream(
        monkeypatch, sample_name, block_name, family, grid):
    _flip_first_row(monkeypatch, block_name)
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
# lanes: errors-in-variables chunks evaluated on several threads merge to the
# same bytes as on one, and a chunk's error leaves the run intact, with every
# worker joined
# ---------------------------------------------------------------------------

def _lane_spec():
    # ten chunks of 256 trials, the last one ragged
    model = gaussian_model(N=64, p=3, theta=[1.0, 0.5, -0.5], sigma2=0.09, seed=73)
    trials = 9 * _chunk(64 * 4) + 3
    return ExperimentSpec(model=model, family="rrtls", trials=trials, seed=73)


def _set_lanes(monkeypatch, lanes):
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: lanes)


def _as_bytes(result):
    return {field.name: (np.asarray(value).tobytes() if isinstance(value, (np.ndarray, float))
                         else value)
            for field in dataclasses.fields(result)
            for value in [getattr(result, field.name)]}


@pytest.mark.parametrize("grid", [None, [0.0, 1.0, 30.0]], ids=["run", "grid"])
def test_errors_in_variables_bytes_do_not_depend_on_the_lane_count(monkeypatch, grid):
    _inject_flaky_stack(monkeypatch)
    chunk = harness_mod._eiv_chunk
    threads_seen = []

    def counted(*args):
        threads_seen.append(threading.active_count())
        return chunk(*args)

    monkeypatch.setattr(harness_mod, "_eiv_chunk", counted)
    spec = _lane_spec()
    before = threading.active_count()
    results = []
    for lanes, workers in ((1, 0), (3, 3)):
        _set_lanes(monkeypatch, lanes)
        threads_seen.clear()
        results.append(_as_bytes(_run_or_compare(spec, grid)))
        # chunk 0 before any worker starts, then one worker per lane while
        # the caller merges
        assert threads_seen[0] == before and max(threads_seen) == before + workers
        assert threading.active_count() == before
    one, three = results
    assert one == three
    assert one["failures"]["nonunique-tls"] > 0
    assert one["completed"] + one["failures"]["nonunique-tls"] == spec.trials
    if grid is not None:
        assert one["witness"] is not None


def test_stream_guard_error_leaves_a_run_on_lanes_before_any_worker(monkeypatch):
    _set_lanes(monkeypatch, 3)
    blocks = _count_draws(monkeypatch, "sample_tls_block")
    _flip_first_row(monkeypatch, "sample_tls_block")
    spec = _lane_spec()
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        run(spec)
    assert type(caught.value) is RuntimeError
    assert str(caught.value) == ("the block sampler's stream for seed 73 departs from the "
                                 "per-trial sampler's at trial 0")
    assert [start for _, start, _ in blocks] == [0]
    assert threading.active_count() == before


def test_lanes_under_stress_evaluate_each_chunk_once(monkeypatch):
    # more lanes than cores and a short switch interval: a chunk evaluated
    # twice or never, or merged out of order, would show
    model = gaussian_model(N=2048, p=3, theta=[1.0, 0.5, -0.5], sigma2=0.09, seed=75)
    rows = _chunk(2048 * 4)
    spec = ExperimentSpec(model=model, family="rrtls", trials=50 * rows - 1, seed=75)
    reference = _as_bytes(run(spec))
    chunk = harness_mod._eiv_chunk
    starts = []

    def counted(spec, norms, signal, start, stop):
        starts.append(start)
        return chunk(spec, norms, signal, start, stop)

    monkeypatch.setattr(harness_mod, "_eiv_chunk", counted)
    _set_lanes(monkeypatch, 8)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: results.append(_as_bytes(run(spec))))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(starts) == list(range(0, spec.trials, rows))
    assert results == [reference]


@pytest.mark.parametrize("grid", [None, [0.0, 1.0, 30.0]], ids=["run", "grid"])
def test_worker_error_leaves_the_run_intact(monkeypatch, grid):
    _set_lanes(monkeypatch, 3)
    chunk = harness_mod._eiv_chunk
    caller = threading.get_ident()
    worker_failed = threading.Event()

    def failing(spec, norms, signal, start, stop):
        if threading.get_ident() != caller:
            worker_failed.set()
            raise ValueError("injected in a worker")
        if start:  # leave at least one chunk to a worker
            assert worker_failed.wait(timeout=60)
        return chunk(spec, norms, signal, start, stop)

    monkeypatch.setattr(harness_mod, "_eiv_chunk", failing)
    before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        _run_or_compare(_lane_spec(), grid)
    assert type(caught.value) is ValueError and str(caught.value) == "injected in a worker"
    assert threading.active_count() == before


def test_lanes_run_at_most_two_chunks_per_lane_ahead_of_the_merge(monkeypatch):
    lanes = 2
    _set_lanes(monkeypatch, lanes)
    spec = _lane_spec()
    total = len(range(0, spec.trials, _chunk(64 * 4)))
    chunk, merge = harness_mod._eiv_chunk, harness_mod._Tally.merge
    changed = threading.Condition()
    merged = [0]
    ahead = []  # chunks started and not yet merged, as each chunk starts

    def counted(*args):
        with changed:
            ahead.append(len(ahead) + 1 - merged[0])
            changed.notify_all()
        return chunk(*args)

    def slow_merge(*args):
        # once the workers run, the caller waits for them to fill the window,
        # then gives them time to overrun it
        with changed:
            assert changed.wait_for(lambda: merged[0] == 0 or len(ahead) >= min(
                total, merged[0] + 2 * lanes), timeout=60)
        time.sleep(0.05)
        merge(*args)
        with changed:
            merged[0] += 1

    monkeypatch.setattr(harness_mod, "_eiv_chunk", counted)
    monkeypatch.setattr(harness_mod._Tally, "merge", slow_merge)
    run(spec)
    assert merged[0] == total and max(ahead) == 2 * lanes


@pytest.mark.parametrize("grid", [None, [0.0, 1.0, 30.0]], ids=["run", "grid"])
def test_a_chunk_error_cancels_the_chunks_queued_behind_it(monkeypatch, grid):
    lanes, k = 2, 3
    _set_lanes(monkeypatch, lanes)
    rows = _chunk(64 * 4)
    chunk = harness_mod._eiv_chunk
    started = []

    def failing(spec, norms, signal, start, stop):
        started.append(start // rows)
        if start == k * rows:
            raise ValueError("injected in chunk k")
        if start > k * rows:
            time.sleep(0.2)  # every worker holds its chunk past k until the cancel
        return chunk(spec, norms, signal, start, stop)

    monkeypatch.setattr(harness_mod, "_eiv_chunk", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="injected in chunk k"):
        _run_or_compare(_lane_spec(), grid)
    assert threading.active_count() == before
    # the started chunks are a prefix of the chunk order; the window admits
    # chunks up to k + 2 lanes - 1, but the ones still queued when chunk k
    # fails are cancelled, so only the one chunk past k that each worker
    # holds has started
    assert sorted(started) == list(range(len(started)))
    assert k < max(started) <= k + lanes


# the names bench/tracer.py wraps to time the layers of one thread
_TRACED = [(harness_mod, name) for name in (
    "sample_ls", "sample_tls", "svd", "order_by_scores", "select_rank_ls", "tls_solve",
    "augmented_scores", "q_objective", "q_objective_bias_recipe")] + [
    (VecStats, "add"), (VecStats, "merge")]


@pytest.mark.parametrize("grid", [None, [0.0, 1.0, 30.0]], ids=["run", "grid"])
def test_lanes_call_the_traced_names_on_the_calling_thread_only(monkeypatch, grid):
    _set_lanes(monkeypatch, 3)
    calls = []
    for owner, name in _TRACED + [(harness_mod, "_eiv_chunk")]:
        def recorded(*args, _original=getattr(owner, name), _name=name):
            calls.append((_name, threading.get_ident()))
            return _original(*args)

        monkeypatch.setattr(owner, name, recorded)
    _run_or_compare(_lane_spec(), grid)
    caller = threading.get_ident()
    assert {ident for name, ident in calls if name != "_eiv_chunk"} == {caller}
    assert {name for name, _ in calls} >= {"sample_tls", "_eiv_chunk"} | (
        {"merge"} if grid is None else set())
    assert any(ident != caller for name, ident in calls if name == "_eiv_chunk")


# ---------------------------------------------------------------------------
# invalid numbers fail before the first trial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trials", [True, 2.5, "3", None])
def test_trials_must_be_an_integer(trials):
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        ExperimentSpec(model=small_model(), family="ls", trials=trials, seed=1)


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), True, "1"])
@pytest.mark.parametrize("tls_mode", ["bound", "oracle"])
def test_bound_must_be_finite(bound, tls_mode):
    # a bool ran as t = 1 and a string raised TypeError
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
