"""Monte Carlo engine and statistical verifiers.

The four estimator families are labels over two observation models:
``ls``/``rrls`` draw additive noise, ``tls``/``rrtls`` draw
errors-in-variables realizations.  Every family selects its rank by one
rule: keep a direction whose score clears ``2 sigma2 (1 + t)``
(``ls._rank_threshold``), t the squared parameter norm the rule assumes:
0 for LS, the model's ``theta'theta`` or a bound for TLS in ``run``, and
each value of a grid in ``compare_selection_rules``.  So ``run`` is the
one-norm case of the grid report, on the same chunks and the same tally.

Both walk the trials in fixed chunks of consecutive trial indices, each
trial drawn from its own substream, and evaluate every arm of the
observation model on the same realizations (paired-seed fairness).  A
chunk is drawn and evaluated as stacked arrays: additive chunks as one
(b, N) block of observations, errors-in-variables chunks as one
(b, N, p + 1) block of augmented matrices factored and checked at once
(``tls.tls_factor_stack``), with rejected trials counted per error code
and dropped.  That factor never forms the left singular vectors: it reads
each trial's singular values, right singular vectors and the coefficients
of y (and, for ``run``, of x) from its (p + 1)-by-(p + 1) Gram matrix,
and gives the trials that route cannot decide safely the SVD of the
augmented matrix itself.  A chunk returns its solved trials, the (G, b)
rank each of G norms selects, counted on the unsorted scores, its arms
and its rejections.  The grid report reads only the ranks, so its chunks
are factored without x and never sort; ``run``'s chunks order the scores
for the per-rank squared errors of their arms.  The blocks come from
``model``'s block sampler; a stream guard draws trial 0 once through the
per-trial ``sample_ls``/``sample_tls`` before a run's first block and
raises ``RuntimeError`` unless the block's first row equals it bit for
bit.  Errors-in-variables chunks after the first run on worker threads
(``_chunk_map``); one tally merges every chunk's rank counts, rejections
and central moments on the calling thread in chunk order, so the bytes do
not depend on the lane count, and no per-trial rows are kept.
``verify_chi_square`` turns the normalized-squared-error moment claims of
any sequence of error vectors into the same pass/fail report that ``run``
attaches, and ``search_norm_dependence_witness`` constructs, from the rank
thresholds, a synthetic score vector whose selected rank provably changes
with the parameter norm.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, check_integer, check_real, finite_array
# The functions below are looked up on this module at call time, so
# callers can wrap them (bench/tracer.py, bench/probe.py, the tests; a run
# reaches the per-trial samplers before its first block); the
# per-trial ``select_rank_ls``, ``tls_solve``, ``augmented_scores``,
# ``q_objective`` and ``q_objective_bias_recipe`` are kept importable here
# for that reason.
from .ls import _count_rank, _rank_threshold, risk_objective, select_rank_ls, tail_sums  # noqa: F401
from .model import (
    MeasurementModel,
    sample_ls,
    sample_ls_block,
    sample_tls,
    sample_tls_block,
)
from .svdtools import order_by_scores, svd
from .tls import (  # noqa: F401
    Q_MODES,
    StackFactor,
    _norm_grid,
    _tls_full_mse,
    augmented_scores,
    norm_dependence_certificate,
    q_objective,
    q_objective_bias_recipe,
    tls_factor_stack,
    tls_solve,
)

ADDITIVE = "additive"
ERRORS_IN_VARIABLES = "errors-in-variables"
OBSERVATION_MODEL = {"ls": ADDITIVE, "rrls": ADDITIVE,
                     "tls": ERRORS_IN_VARIABLES, "rrtls": ERRORS_IN_VARIABLES}
FAMILIES = tuple(OBSERVATION_MODEL)

# Pass-rule tolerances: a rank arm's MSE against its theory value (or 3 SE),
# and the normalized full-rank error's mean and variance against p and 2p.
MSE_RTOL = 0.03
MEAN_RTOL = 0.01
VAR_RTOL = 0.05
# Fewest error vectors verify_chi_square accepts.
MIN_SAMPLES = 10_000


# ---------------------------------------------------------------------------
# Streaming aggregation
# ---------------------------------------------------------------------------

class VecStats:
    """Streaming central moments up to order four (Welford/Pebay updates),
    elementwise over arrays.  Supports associative merging of partial
    aggregates, such as the moments of a block of rows (``from_block``)."""

    def __init__(self, shape=()):
        self.n = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)
        self.m3 = np.zeros(shape)
        self.m4 = np.zeros(shape)

    @classmethod
    def from_block(cls, rows) -> "VecStats":
        """Central moments of the rows of ``rows`` (one observation per
        index of axis 0), computed directly with numpy.

        The mean is taken about the first row, so a constant column has its
        value as the exact mean and zero spread, as the streaming update
        gives.
        """
        rows = np.asarray(rows, dtype=float)
        stats = cls(rows.shape[1:])
        if rows.shape[0]:
            stats.n = rows.shape[0]
            shifted = rows - rows[0]
            shift_mean = shifted.mean(axis=0)
            stats.mean = rows[0] + shift_mean
            dev = shifted - shift_mean
            dev2 = dev * dev
            stats.m2 = dev2.sum(axis=0)
            stats.m3 = (dev2 * dev).sum(axis=0)
            stats.m4 = (dev2 * dev2).sum(axis=0)
        return stats

    def add(self, value) -> None:
        n1 = self.n
        self.n += 1
        n = self.n
        delta = value - self.mean
        dn = delta / n
        dn2 = dn * dn
        term1 = delta * dn * n1
        self.mean = self.mean + dn
        self.m4 = (
            self.m4
            + term1 * dn2 * (n * n - 3 * n + 3)
            + 6.0 * dn2 * self.m2
            - 4.0 * dn * self.m3
        )
        self.m3 = self.m3 + term1 * dn * (n - 2) - 3.0 * dn * self.m2
        self.m2 = self.m2 + term1

    def merge(self, other: "VecStats") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self.mean, self.m2 = other.mean, other.m2
            self.m3, self.m4 = other.m3, other.m4
            return
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        d2 = delta * delta
        m2 = self.m2 + other.m2 + d2 * (na * nb / n)
        m3 = (
            self.m3
            + other.m3
            + delta * d2 * (na * nb * (na - nb) / (n * n))
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4
            + other.m4
            + d2 * d2 * (na * nb * (na * na - na * nb + nb * nb) / (n**3))
            + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n
        )
        self.mean = self.mean + delta * (nb / n)
        self.m2, self.m3, self.m4 = m2, m3, m4
        self.n = n

    def variance(self):
        if self.n < 2:
            return np.full_like(self.m2, np.nan)
        return self.m2 / (self.n - 1)

    def se(self):
        if self.n < 2:
            return np.full_like(self.m2, np.nan)
        return np.sqrt(self.variance() / self.n)

    def variance_se(self):
        """Asymptotic standard error of the sample variance."""
        if self.n < 2:
            return np.full_like(self.m2, np.nan)
        m4c = self.m4 / self.n
        m2c = self.m2 / self.n
        return np.sqrt(np.maximum(m4c - m2c * m2c, 0.0) / self.n)


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """What to simulate: model, estimator family, trial budget and seed.

    ``tls_mode`` (one of ``tls.Q_MODES``) and ``bound`` choose how the
    reduced-TLS selection objective obtains the squared parameter norm (the
    oracle value from the model, or a caller-supplied upper bound); additive
    families take only the oracle mode, and a bound is given exactly in
    bound mode.  The spec is frozen, so these rules hold for its lifetime.
    """

    model: MeasurementModel
    family: str
    trials: int
    seed: int
    tls_mode: str = "oracle"
    bound: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        check_integer(self.trials, "trials", 1)
        check_integer(self.seed, "seed", 0)
        N, p = self.model.N, self.model.p
        if self.observation == ERRORS_IN_VARIABLES and N < p + 1:
            raise ValueError(
                f"family {self.family!r} needs N >= p + 1 rows for the augmented "
                f"matrix [H_tilde, y], got N={N}, p={p}"
            )
        if self.tls_mode not in Q_MODES:
            raise ValueError(f"tls_mode must be one of {Q_MODES}, got {self.tls_mode!r}")
        if self.bound is not None:
            check_real(self.bound, "bound")
        if self.observation == ADDITIVE and self.tls_mode != "oracle":
            raise ValueError(f"family {self.family!r} has no reduced-TLS objective; "
                             f"tls_mode must be 'oracle', got {self.tls_mode!r}")
        if self.tls_mode != "bound" and self.bound is not None:
            raise ValueError(f"bound is only used in bound mode, got bound={self.bound!r} "
                             f"with tls_mode={self.tls_mode!r}")
        if self.tls_mode == "bound" and self.bound is None:
            raise ValueError("bound mode requires a nonnegative bound")

    @property
    def observation(self) -> str:
        """The observation model the family label stands for."""
        return OBSERVATION_MODEL[self.family]


@dataclass
class MomentReport:
    """Empirical mean/variance of a normalized squared error against its
    chi-square reference moments, with standard errors and pass flags.

    The flags are recomputable from the stored moments: the mean must be
    within ``MEAN_RTOL`` of ``dof`` and the variance within ``VAR_RTOL`` of
    ``2 * dof`` (relative)."""

    n: int
    dof: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    mean_ok: bool
    var_ok: bool


@dataclass
class ExperimentResult:
    """Aggregates of one Monte Carlo run.  All flags are recomputable from
    the stored aggregates: a row passes when its empirical MSE is within
    ``MSE_RTOL`` of its theory value (relative) or within 3 SE."""

    family: str
    trials: int
    seed: int
    completed: int
    failures: Dict[str, int]
    ranks: np.ndarray
    mse_emp: np.ndarray
    mse_se: np.ndarray
    mse_theory: np.ndarray
    sel_freq: np.ndarray
    auto_mse: float
    auto_se: float
    risk_estimate_mean: Optional[np.ndarray]
    risk_estimate_se: Optional[np.ndarray]
    tls_full_formula_mean: Optional[float]
    moments: Optional[MomentReport]
    row_pass: np.ndarray


@dataclass
class SelectionComparison:
    """Selected-rank distributions across a grid of parameter norms,
    evaluated on identical realizations (paired by seed); the bias recipe
    selects the same ranks, so ``q_star_freq`` is its table too."""

    grid: np.ndarray
    q_star_freq: np.ndarray
    theta_dependent: bool
    witness: Optional[Dict[str, float]]
    completed: int
    failures: Dict[str, int]


@dataclass
class NormDependenceWitness:
    """A synthetic instance where the selected rank changes with the
    parameter norm: scores plus the witnessing grid pair."""

    p: int
    sigma2: float
    scores: np.ndarray
    t1: float
    t2: float
    q1: int
    q2: int


# ---------------------------------------------------------------------------
# Chunk evaluation
# ---------------------------------------------------------------------------

def _chunk_rows(draw_size: int) -> int:
    """Trials per chunk, from the floats one trial draws alone (N for the
    additive model, N (p + 1) for errors-in-variables): a stacked block of
    draws stays within 512 KiB, and the chunk boundaries, and with them the
    aggregation order, are fixed by the model shape."""
    return min(1024, max(1, 2**16 // draw_size))


def _rank_sq_errors(diff: np.ndarray, d: np.ndarray, resid) -> np.ndarray:
    # |x - sum_{j<=r} c_j u_j|^2 for every rank r, row-wise over (b, p)
    # blocks of ordered coefficients, as a sum of squares: kept coefficient
    # mismatches diff = c - d, discarded signal energy (d = U'x) and the
    # out-of-span residual resid = |x - U U'x|^2.  Nonnegative by
    # construction and exactly zero for exact reconstructions (no
    # cancellation of large terms).
    return np.cumsum(diff * diff, axis=-1) + tail_sums(d * d) + resid


def _sample_block(spec: ExperimentSpec, start: int, stop: int) -> np.ndarray:
    """Realizations of trials ``[start, stop)`` as one stacked block: (b, N)
    observations for the additive model, (b, N, p + 1) augmented matrices
    ``[H_tilde, y]`` for errors-in-variables.

    Stream guard: before a run's first block (``start == 0``), trial 0 is
    drawn once through the per-trial sampler, and the block's first row must
    equal it bit for bit, or ``RuntimeError`` is raised.
    """
    model, seed = spec.model, spec.seed
    eiv = spec.observation == ERRORS_IN_VARIABLES
    sample, sample_block = (sample_tls, sample_tls_block) if eiv else (sample_ls, sample_ls_block)
    if start:
        return sample_block(model, seed, start, stop)
    real = sample(model, seed, 0)
    block = sample_block(model, seed, 0, stop)
    first = np.column_stack([real.H_tilde, real.y]) if eiv else real.y
    if block[0].tobytes() != first.tobytes():
        raise RuntimeError(f"the block sampler's stream for seed {seed} departs "
                           "from the per-trial sampler's at trial 0")
    return block


def _additive_chunk(spec: ExperimentSpec, U: np.ndarray, d: np.ndarray, resid: float,
                    start: int, stop: int):
    """Trials ``[start, stop)`` of the additive model as stacked arrays.

    ``U`` is the run's left singular basis, ``d = U'x`` and ``resid =
    |x - U U'x|^2``.  ``C = Y U`` holds every trial's coefficients; each
    row is ordered by descending score (stable, so ties keep the column
    order).  Returns ``(trials, index, arms, failures)`` as ``_eiv_chunk``
    does, with one norm, t = 0 (the LS rule): the arms are ``sq`` (squared
    errors per rank, (b, p)), ``risk`` (risk estimate per rank) and, for
    ``sigma2 > 0``, ``norm``; no trial is rejected.
    """
    model = spec.model
    Y = _sample_block(spec, start, stop)
    C = Y @ U
    order = np.argsort(-(C * C), axis=1, kind="stable")
    c = np.take_along_axis(C, order, axis=1)
    # U'(y - x) directly, so noiseless draws have exactly zero mismatch
    diff = np.take_along_axis((Y - model.x) @ U, order, axis=1)
    sq = _rank_sq_errors(diff, d[order], resid)
    scores = c * c
    arms = {"sq": sq, "risk": risk_objective(scores, model.sigma2)}
    if model.sigma2 > 0:
        arms["norm"] = sq[:, -1] / model.sigma2
    index = _count_rank(scores, _rank_threshold(model.sigma2, 0.0))[None] - 1
    return np.arange(start, stop), index, arms, {}


def _eiv_chunk(spec: ExperimentSpec, norms: np.ndarray, signal: bool, start: int, stop: int):
    """Trials ``[start, stop)`` of the errors-in-variables model as stacked
    arrays: draw, factor and check (``tls.tls_factor_stack``), count.

    Rejected trials are counted under their error code and dropped.  For
    the solved trials, in trial order, returns ``(trials, index, arms,
    failures)``: their indices; the (G, b) 0-based rank each of the G
    squared parameter norms ``norms`` selects, the count of the retained
    scores ``(U'y)_j^2`` above ``2 sigma2 (1 + t)``, which reads them
    unsorted; the arms; and the chunk's rejections per error code.  Only
    with ``signal`` is the stack factored with x and are the retained
    columns ordered by descending score (stable), for the arms ``sq``,
    ``theory`` and ``formula_full`` from the coefficients of y and x (all
    empty if no trial is solved): the corrected signal ``U_s (core theta)``
    misses x by ``|core theta - U_s'x|^2 + |x - U_s U_s'x|^2``.  Without it
    there are no arms.
    """
    model = spec.model
    p, sigma2 = model.p, model.sigma2
    factor = tls_factor_stack(_sample_block(spec, start, stop), model.x if signal else None)
    solved = factor.codes == ""
    failures = {str(code): int(n)
                for code, n in zip(*np.unique(factor.codes[~solved], return_counts=True))}
    if failures:  # the whole-stack copies only when a row is dropped
        factor = StackFactor(*(None if field is None else field[solved] for field in factor))
    coef = factor.coef[:, :p]
    scores = coef * coef
    index = _count_rank(scores, _rank_threshold(sigma2, norms[:, None])) - 1
    trials = start + np.flatnonzero(solved)
    if not signal:
        return trials, index, {}, failures
    order = np.argsort(-scores, axis=1, kind="stable")
    coef_x = factor.coef_x
    d = np.take_along_axis(coef_x[:, :p], order, axis=1)
    sq = _rank_sq_errors(np.take_along_axis(coef, order, axis=1) - d, d, factor.resid[:, None])
    d_aug = np.concatenate([d, coef_x[:, p:]], axis=1)
    theory = tail_sums(d_aug * d_aug)[:, :p] + np.arange(1, p + 1) * sigma2
    miss = factor.core @ model.theta - coef_x[:, :p]
    formula = _tls_full_mse(model, np.sum(miss * miss, axis=1) + factor.resid)
    return trials, index, {"sq": sq, "theory": theory, "formula_full": formula}, failures


class _Tally:
    """The totals of a run, merged from its chunks' ``(trials, index, arms,
    failures)`` in chunk order on the calling thread: the (G, p) counts of
    each norm's selected rank, the rejections per error code, the moments
    of each arm (with ``auto``, the squared error at the selected rank, for
    chunks with ``sq``, which have G = 1), the completed trials, and
    ``mover``, the first trial, in trial order, whose selected rank moves
    across the norms, with its G ranks (``None`` until one does)."""

    def __init__(self, G: int, p: int):
        self.counts = np.zeros((G, p), dtype=np.int64)
        self.failures: Counter = Counter()
        self.arms: Dict[str, VecStats] = {}
        self.completed = 0
        self.mover = None

    def merge(self, result) -> None:
        trials, index, arms, rejected = result
        if "sq" in arms:
            arms["auto"] = arms["sq"][np.arange(trials.shape[0]), index[0]]
        for name, block in arms.items():
            self.arms.setdefault(name, VecStats(block.shape[1:])).merge(VecStats.from_block(block))
        self.counts += _rank_tally(index, self.counts.shape[1])
        self.failures.update(rejected)
        self.completed += trials.shape[0]
        if self.mover is None and index.shape[0] > 1:
            movers = np.flatnonzero((index != index[0]).any(axis=0))
            if movers.size:
                self.mover = int(trials[movers[0]]), index[:, movers[0]] + 1


def _rank_tally(q_index: np.ndarray, p: int) -> np.ndarray:
    """(G, p) counts of each 0-based rank index in every row of a (G, b)
    block, from one ``np.bincount`` with row g offset by ``g p``."""
    G = q_index.shape[0]
    return np.bincount((q_index + p * np.arange(G)[:, None]).ravel(), minlength=G * p).reshape(G, p)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_map(chunk, trials: int, rows: int, merge, lanes: int) -> None:
    """``merge(chunk(start, stop))`` for the consecutive chunks of ``rows``
    trials that tile ``[0, trials)``, merged in chunk order on the calling
    thread.

    Chunk 0 (it holds the stream guard) runs on the calling thread before
    any worker starts.  With ``lanes`` > 1, ``lanes`` worker threads take
    the other chunks in chunk order as they free up, and the calling thread
    only merges their results, in chunk order; the next chunk is submitted
    once the oldest is merged, so at most ``2 * lanes`` run or wait ahead
    of the merge.  So the merged bytes do not depend on ``lanes``, and a
    chunk's exception comes out intact, the first failing chunk in chunk
    order winning as in a sequential loop, with the chunks queued behind it
    cancelled unstarted.  Every worker is joined before this returns or
    raises.
    """
    bounds = [(start, min(start + rows, trials)) for start in range(0, trials, rows)]
    merge(chunk(*bounds[0]))
    lanes = min(lanes, len(bounds) - 1)
    if lanes < 2:
        for bound in bounds[1:]:
            merge(chunk(*bound))
        return
    # Imported after the first trial, so a run's set-up time does not pay it.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(lanes)
    try:
        window = deque()
        for bound in bounds[1:]:
            if len(window) == 2 * lanes:
                merge(window.popleft().result())
            window.append(pool.submit(chunk, *bound))
        while window:
            merge(window.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the Monte Carlo experiment.

    The one-norm case of ``compare_selection_rules``: ranks are selected
    at t = 0 for the additive model (the LS rule), and for
    errors-in-variables at the model's ``theta'theta`` in oracle mode or at
    the bound in bound mode.  Trials run in chunks whose size the engine
    fixes from the model shape alone; a chunk returns its completed trials'
    rows for each arm of its observation model, and one tally merges the
    arms' moments and the rank counts in chunk order on the calling thread,
    so a seed fixes every aggregate bit for bit, whatever the lane count.
    Errors-in-variables chunks after the first run on one worker thread
    per usable CPU (``_chunk_map``), as their draws and stacked
    factorizations run outside the GIL.  Additive chunks run on the calling
    thread alone: on lanes they lost 13% trials/s and cost 17% more CPU at
    N=16, p=4.  No per-trial rows are kept.  An Optional result field is
    set exactly when its arm has a completed trial (the moment report of
    ``norm`` needs two); the risk estimate minus ``sigma2 * r`` is
    ``ls.bias_estimate``'s corrected statistic.

    Per-trial estimator failures (e.g. TLS nonuniqueness) are counted per
    error code and excluded from the aggregates, never imputed.
    """
    model = spec.model
    p = model.p
    if spec.observation == ERRORS_IN_VARIABLES:
        # replaced by the theory arm's mean once a trial completes
        mse_theory = np.full(p, np.nan)
        norm = float(spec.bound) if spec.tls_mode == "bound" else model.theta_norm2
        chunk = partial(_eiv_chunk, spec, np.array([norm]), True)
        rows = _chunk_rows(model.N * (p + 1))
        lanes = _usable_cpus()
    else:
        U = svd(model.H).U
        # Also checks that U is orthonormal, once for the whole run.
        oracle_basis = order_by_scores(U, model.x)
        mse_theory = tail_sums(oracle_basis.scores) + np.arange(1, p + 1) * model.sigma2
        d = U.T @ model.x
        rho = model.x - U @ d
        chunk = partial(_additive_chunk, spec, U, d, float(rho @ rho))
        rows = _chunk_rows(model.N)
        lanes = 1
    tally = _Tally(1, p)
    _chunk_map(chunk, spec.trials, rows, tally.merge, lanes)

    totals, completed = tally.arms, tally.completed
    means = {name: stats.mean for name, stats in totals.items() if stats.n}
    mse_emp = means.get("sq", np.full(p, np.nan))
    mse_theory = means.get("theory", mse_theory)
    mse_se = totals["sq"].se()
    diff = np.abs(mse_emp - mse_theory)
    se_term = np.where(np.isfinite(mse_se), 3.0 * mse_se, 0.0)
    row_pass = diff <= np.maximum(MSE_RTOL * np.abs(mse_theory), se_term)
    norm = totals.get("norm")
    return ExperimentResult(
        family=spec.family,
        trials=spec.trials,
        seed=spec.seed,
        completed=completed,
        failures=dict(sorted(tally.failures.items())),
        ranks=np.arange(1, p + 1),
        mse_emp=mse_emp,
        mse_se=mse_se,
        mse_theory=mse_theory,
        sel_freq=tally.counts[0] / completed if completed else np.zeros(p),
        auto_mse=float(means.get("auto", np.nan)),
        auto_se=float(totals["auto"].se()),
        risk_estimate_mean=means.get("risk"),
        risk_estimate_se=totals["risk"].se() if "risk" in means else None,
        tls_full_formula_mean=float(means["formula_full"]) if "formula_full" in means else None,
        moments=_moment_report(norm, p) if norm is not None and norm.n >= 2 else None,
        row_pass=row_pass,
    )


def _moment_report(stats: VecStats, dof: int) -> MomentReport:
    """Chi-square moment report of a normalized squared error from its
    aggregated moments (at least two observations)."""
    mean = float(stats.mean)
    variance = float(stats.variance())
    return MomentReport(
        n=stats.n,
        dof=dof,
        mean=mean,
        mean_se=float(stats.se()),
        variance=variance,
        variance_se=float(stats.variance_se()),
        mean_ok=abs(mean - dof) <= MEAN_RTOL * dof,
        var_ok=abs(variance - 2 * dof) <= VAR_RTOL * 2 * dof,
    )


def verify_chi_square(errors, sigma2: float, dof: int) -> MomentReport:
    """Check the chi-square moments of normalized squared errors.

    ``errors`` is a sequence of at least ``MIN_SAMPLES`` (10,000) finite
    error vectors; the statistic is ``|e|^2 / sigma2`` per vector, whose
    reference moments are ``dof`` and ``2 * dof``.  Mean must match within
    ``MEAN_RTOL`` (relative) and variance within ``VAR_RTOL``.  ``sigma2``
    must be finite and positive and ``dof`` a positive integer.
    """
    E = finite_array(errors, "errors", 2)
    n = E.shape[0]
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} samples, got {n}")
    check_real(sigma2, "sigma2", strict=True)
    check_integer(dof, "dof", 1)
    s = np.einsum("ij,ij->i", E, E) / sigma2
    return _moment_report(VecStats.from_block(s), dof)


def compare_selection_rules(spec: ExperimentSpec, grid: Sequence[float]) -> SelectionComparison:
    """Evaluate the reduced-TLS rank selection across a grid of parameter
    norms on identical realizations.

    ``run`` with one norm per grid value: the same chunks, lanes and tally,
    with the rank of every grid value counted at once as the number of
    retained scores above ``2 sigma2 (1 + t)``, the rank of both rules.
    The count reads the scores unsorted and the stack is factored without
    x, as no arm is evaluated.  The grid replaces the spec's TLS mode,
    which must be the oracle one.
    Flags theta dependence when any realization selects different ranks at
    two grid points: the witness is the first such trial, in trial order,
    with the first grid value and the first one whose rank differs from it,
    read from that trial's ranks: the pair
    :func:`tls.norm_dependence_certificate` gives for its scores.  The
    sigma2 = 0 case is provably grid-invariant (the objective is then a
    positive multiple of a norm-free tail sum).
    """
    if spec.family != "rrtls":
        raise ValueError(f"selection-rule comparison requires family 'rrtls', got {spec.family!r}")
    if spec.tls_mode != "oracle":
        raise ValueError(f"a grid replaces the parameter norm; tls_mode must be 'oracle', "
                         f"got {spec.tls_mode!r}")
    grid_arr = _norm_grid(grid, "grid")
    model = spec.model
    tally = _Tally(grid_arr.shape[0], model.p)
    _chunk_map(partial(_eiv_chunk, spec, grid_arr, False), spec.trials,
               _chunk_rows(model.N * (model.p + 1)), tally.merge, _usable_cpus())
    witness = None
    if tally.mover is not None:
        trial, q = tally.mover
        i = int(np.argmax(q != q[0]))
        witness = {"trial": trial, "t1": float(grid_arr[0]), "t2": float(grid_arr[i]),
                   "q1": int(q[0]), "q2": int(q[i])}
    completed = tally.completed
    return SelectionComparison(
        grid=grid_arr,
        q_star_freq=tally.counts / completed if completed else np.zeros(tally.counts.shape),
        theta_dependent=witness is not None,
        witness=witness,
        completed=completed,
        failures=dict(sorted(tally.failures.items())),
    )


def search_norm_dependence_witness(
    p: int = 4,
    sigma2: float = 0.25,
    t_grid: Sequence[float] = (0.0, 1.0, 3.0, 10.0),
) -> NormDependenceWitness:
    """Construct a synthetic descending score vector whose selected rank
    differs between two grid values of the parameter norm.

    With ``t1 = t_grid[0]`` and ``t2`` the first grid value that differs
    from it, the first two of the ``p + 1`` scores are ``sigma2 (2 + t1 +
    t2)``, midway between the thresholds ``2 sigma2 (1 + t)`` of t1 and t2,
    and the rest are 0: both clear the lower threshold and neither the
    higher, so the rank is 2 at one value and 1 at the other.  The witness
    is the :func:`tls.norm_dependence_certificate` witness of those scores,
    so it pairs t1 with t2.

    Raises ``ValueError`` before any work when no witness can exist or an
    input is invalid: ``sigma2`` is not finite and positive (at 0 every
    threshold is 0, so the rank does not move), ``t_grid`` is not a
    sequence of finite values >= 0 or holds fewer than two distinct values,
    the thresholds of t1 and t2 are too close for a float score to lie
    strictly between them, ``p`` is not a positive integer, or ``p`` is 1
    (one retained score selects rank 1 at every norm).
    """
    sigma2 = check_real(sigma2, "sigma2", strict=True)
    grid = _norm_grid(t_grid, "t_grid") if np.size(t_grid) else ()
    if len(set(grid)) < 2:
        raise ValueError(f"t_grid needs two distinct values for a witness to exist, got {t_grid!r}")
    t1, t2 = float(grid[0]), float(grid[np.argmax(grid != grid[0])])
    lo, hi = sorted(_rank_threshold(sigma2, np.array([t1, t2])))
    value = sigma2 * (2.0 + t1 + t2)
    if not (lo < value <= hi and np.isfinite(value)):
        raise ValueError(f"t_grid values {t1!r} and {t2!r} give thresholds 2 sigma2 (1 + t) "
                         "that no finite score separates")
    if check_integer(p, "p", 1) < 2:
        raise ValueError(f"p must be at least 2 for a witness: one retained score selects "
                         f"rank 1 at every norm, got {p!r}")
    scores = np.zeros(p + 1)
    scores[:2] = value
    t1, t2, q1, q2 = norm_dependence_certificate(grid, scores, sigma2, p).witness
    return NormDependenceWitness(p=p, sigma2=sigma2, scores=scores, t1=t1, t2=t2, q1=q1, q2=q2)
