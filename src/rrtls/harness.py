"""Monte Carlo engine and statistical verifiers.

The four estimator families are labels over two observation models:
``ls``/``rrls`` draw additive noise, ``tls``/``rrtls`` draw
errors-in-variables realizations.  ``run`` walks the trials in fixed chunks
of consecutive trial indices, each trial drawn from its own substream, and
evaluates every rank arm of the observation model on the same realizations
(paired-seed fairness).  A chunk is drawn and evaluated as stacked arrays:
additive chunks as one (b, N) block of observations, errors-in-variables
chunks as one (b, N, p + 1) block of augmented matrices factored and
checked at once (``tls.tls_factor_stack``), with rejected trials counted
per error code and dropped.  The blocks come from ``model``'s block
sampler; a stream guard draws trial 0 once through the per-trial
``sample_ls``/``sample_tls`` before a run's first block and raises
``RuntimeError`` unless the block's first row equals it bit for bit.
Each chunk's central moments are merged into the run totals in chunk
order.  The aggregates (per-rank squared errors, the data-driven
risk estimate, the moments of the normalized full-rank error) are the
statistics the verification suite reads, so it needs no per-trial rows.
``verify_chi_square`` turns the normalized-squared-error moment claims of
any sequence of error vectors into the same pass/fail report that ``run``
attaches, ``compare_selection_rules`` evaluates the rank selection
of the reduced TLS hypothesis across a grid of parameter norms on identical
realizations, and ``search_norm_dependence_witness`` finds a synthetic
score vector whose selected rank provably changes with the parameter norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import InsufficientDataError
# The functions below are looked up on this module at call time, so
# callers can wrap them (bench/tracer.py, bench/probe.py, the tests; a run
# reaches the per-trial samplers before its first block); the
# per-trial ``select_rank_ls``, ``tls_solve``, ``augmented_scores``,
# ``q_objective`` and ``q_objective_bias_recipe`` are kept importable here
# for that reason.
from .ls import risk_objective, select_rank_ls, tail_sums  # noqa: F401
from .model import (
    MeasurementModel,
    _aux_rng,
    sample_ls,
    sample_ls_block,
    sample_tls,
    sample_tls_block,
)
from .svdtools import check_orthonormal, order_by_scores, svd
from .tls import (  # noqa: F401
    Q_MODES,
    _q_values,
    _tls_full_mse,
    augmented_scores,
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
# Fewest error vectors verify_chi_square accepts, and the most score
# vectors search_norm_dependence_witness draws before giving up.
MIN_SAMPLES = 10_000
MAX_WITNESS_TRIES = 10_000


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

@dataclass
class ExperimentSpec:
    """What to simulate: model, estimator family, trial budget and seed.

    ``tls_mode`` (one of ``tls.Q_MODES``) and ``bound`` choose how the
    reduced-TLS selection objective obtains the squared parameter norm (the
    oracle value from the model, or a caller-supplied upper bound); additive
    families take only the oracle mode, and a bound is given exactly in
    bound mode.
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
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        N, p = self.model.N, self.model.p
        if self.observation == ERRORS_IN_VARIABLES and N < p + 1:
            raise ValueError(
                f"family {self.family!r} needs N >= p + 1 rows for the augmented "
                f"matrix [H_tilde, y], got N={N}, p={p}"
            )
        if self.tls_mode not in Q_MODES:
            raise ValueError(f"tls_mode must be one of {Q_MODES}, got {self.tls_mode!r}")
        if self.bound is not None and not math.isfinite(self.bound):
            raise ValueError(f"bound must be finite, got {self.bound!r}")
        if self.observation == ADDITIVE and self.tls_mode != "oracle":
            raise ValueError(f"family {self.family!r} has no reduced-TLS objective; "
                             f"tls_mode must be 'oracle', got {self.tls_mode!r}")
        if self.tls_mode != "bound" and self.bound is not None:
            raise ValueError(f"bound is only used in bound mode, got bound={self.bound!r} "
                             f"with tls_mode={self.tls_mode!r}")
        if self.tls_mode == "bound":
            if self.bound is None or self.bound < 0:
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
    evaluated on identical realizations (paired by seed)."""

    grid: np.ndarray
    q_star_freq: np.ndarray
    q_star_freq_alt: np.ndarray
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
    tries: int


# ---------------------------------------------------------------------------
# Chunk evaluation
# ---------------------------------------------------------------------------

def _chunk_rows(draw_size: int) -> int:
    """Trials per chunk, from the floats one trial draws alone (N for the
    additive model, N (p + 1) for errors-in-variables): a stacked block of
    draws stays within 512 KiB, and the chunk boundaries, and with them the
    aggregation order, are fixed by the model shape."""
    return min(1024, max(1, 2**16 // draw_size))


class _Accumulator:
    """Run totals: moments merged chunk by chunk, and selection and
    failure counts."""

    def __init__(self, p: int):
        self.sq = VecStats((p,))
        self.auto = VecStats(())
        self.norm = VecStats(())
        self.theory = VecStats((p,))
        self.risk = VecStats((p,))
        self.formula_full = VecStats(())
        self.sel_counts = np.zeros(p, dtype=np.int64)
        self.failures: Dict[str, int] = {}

    def add_chunk(self, sq: np.ndarray, r_index: np.ndarray, **blocks) -> None:
        """Merge the completed trials of one chunk: their per-rank squared
        errors ``sq`` (b, p), their selected ranks as 0-based indices, and
        further per-trial rows by accumulator name."""
        blocks.update(sq=sq, auto=sq[np.arange(sq.shape[0]), r_index])
        for name, rows in blocks.items():
            getattr(self, name).merge(VecStats.from_block(rows))
        self.sel_counts += np.bincount(r_index, minlength=self.sel_counts.shape[0])


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


def _eiv_kernel(spec: ExperimentSpec, start: int, stop: int, failures: Dict[str, int]):
    """Trials ``[start, stop)`` of the errors-in-variables model up to the
    selection scores, as stacked arrays: draw, factor and check, order.

    Rejected trials are counted under their error code and dropped.  For
    the solved trials, in trial order, returns ``(trials, U, core, coef,
    order, scores)``: their indices; the left singular vectors of
    ``[H_tilde, y]`` (b, N, p + 1), retained columns first and the
    discarded one last; the cores ``U_s' H_tilde``; the coefficients
    ``U'y``; the stable descending order of the retained scores (b, p);
    and the augmented scores (b, p + 1), the ordered retained scores
    followed by the discarded direction's.
    """
    p = spec.model.p
    A = _sample_block(spec, start, stop)
    U, core, codes = tls_factor_stack(A)
    solved = codes == ""
    for code, n in zip(*np.unique(codes[~solved], return_counts=True)):
        failures[str(code)] = failures.get(str(code), 0) + int(n)
    U, core = U[solved], core[solved]
    check_orthonormal(U[..., :p])
    coef = (A[solved, None, :, p] @ U)[:, 0]
    scores = coef * coef
    order = np.argsort(-scores[:, :p], axis=1, kind="stable")
    scores[:, :p] = np.take_along_axis(scores[:, :p], order, axis=1)
    return start + np.flatnonzero(solved), U, core, coef, order, scores


def _additive_chunk(spec: ExperimentSpec, U: np.ndarray, d: np.ndarray, resid: float,
                    start: int, stop: int, acc: _Accumulator) -> None:
    """Trials ``[start, stop)`` of the additive model as stacked arrays.

    ``U`` is the run's left singular basis, ``d = U'x`` and ``resid =
    |x - U U'x|^2``.  ``C = Y U`` holds every trial's coefficients; each
    row is ordered by descending score (stable, so ties keep the column
    order) and the rank arms and the selected rank come out row-wise.
    """
    model = spec.model
    Y = _sample_block(spec, start, stop)
    C = Y @ U
    order = np.argsort(-(C * C), axis=1, kind="stable")
    c = np.take_along_axis(C, order, axis=1)
    # U'(y - x) directly, so noiseless draws have exactly zero mismatch
    diff = np.take_along_axis((Y - model.x) @ U, order, axis=1)
    sq = _rank_sq_errors(diff, d[order], resid)
    objective = risk_objective(c * c, model.sigma2)
    blocks = {"risk": objective}
    if model.sigma2 > 0:
        blocks["norm"] = sq[:, -1] / model.sigma2
    acc.add_chunk(sq, np.argmin(objective, axis=1), **blocks)


def _eiv_chunk(spec: ExperimentSpec, start: int, stop: int, acc: _Accumulator) -> None:
    """Trials ``[start, stop)`` of the errors-in-variables model as stacked
    arrays (``_eiv_kernel``).  The per-rank errors, selections and theory
    column come out row-wise from the coefficients of y and x on each
    trial's ordered retained columns; the corrected signal is
    ``U_s (core theta)``."""
    model = spec.model
    p, x, sigma2 = model.p, model.x, model.sigma2
    t_val = model.theta_norm2 if spec.tls_mode == "oracle" else float(spec.bound)
    _, U, core, coef, order, scores = _eiv_kernel(spec, start, stop, acc.failures)
    if not coef.shape[0]:
        return
    Us = U[..., :p]
    coef_x = x @ U
    d = np.take_along_axis(coef_x[:, :p], order, axis=1)
    diff = np.take_along_axis(coef[:, :p], order, axis=1) - d
    rho = x - (Us @ coef_x[:, :p, None])[..., 0]
    sq = _rank_sq_errors(diff, d, np.sum(rho * rho, axis=1)[:, None])
    d_aug = np.concatenate([d, coef_x[:, p:]], axis=1)
    theory = tail_sums(d_aug * d_aug)[:, :p] + np.arange(1, p + 1) * sigma2
    formula = _tls_full_mse(model, (Us @ (core @ model.theta)[..., None])[..., 0])
    q_index = np.argmin(_q_values(scores, sigma2, p, t_val), axis=1)
    acc.add_chunk(sq, q_index, theory=theory, formula_full=formula)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the Monte Carlo experiment.

    Trials run in order, in chunks of consecutive trial indices
    ``[start, stop)`` whose size the engine fixes from the per-trial draw
    size alone (``N`` floats for the additive model, ``N (p + 1)`` for
    errors-in-variables), and each chunk is evaluated as stacked arrays;
    each chunk's moments are merged into the totals in chunk order, so a
    seed fixes every aggregate bit for bit.  No per-trial rows are kept:
    the result holds only the aggregates.

    Additive runs also aggregate the risk estimate per rank (minus
    ``sigma2 * r`` it is ``ls.bias_estimate``'s corrected statistic) and,
    for ``sigma2 > 0``, the normalized full-rank error's moment report.

    Per-trial estimator failures (e.g. TLS nonuniqueness) are counted per
    error code and excluded from the aggregates, never imputed.
    """
    model = spec.model
    p = model.p
    eiv = spec.observation == ERRORS_IN_VARIABLES
    if eiv:
        chunk = partial(_eiv_chunk, spec)
        rows = _chunk_rows(model.N * (p + 1))
    else:
        U = svd(model.H).U
        # Also checks that U is orthonormal, once for the whole run.
        oracle_basis = order_by_scores(U, model.x)
        mse_theory = tail_sums(oracle_basis.scores) + np.arange(1, p + 1) * model.sigma2
        d = U.T @ model.x
        rho = model.x - U @ d
        chunk = partial(_additive_chunk, spec, U, d, float(rho @ rho))
        rows = _chunk_rows(model.N)
    acc = _Accumulator(p)
    for start in range(0, spec.trials, rows):
        chunk(start, min(start + rows, spec.trials), acc)

    completed = acc.sq.n
    if eiv:
        mse_theory = acc.theory.mean if completed else np.full(p, np.nan)
    mse_emp = acc.sq.mean if completed else np.full(p, np.nan)
    mse_se = acc.sq.se()
    sel_freq = acc.sel_counts / completed if completed else np.zeros(p)
    diff = np.abs(mse_emp - mse_theory)
    se_term = np.where(np.isfinite(mse_se), 3.0 * mse_se, 0.0)
    row_pass = diff <= np.maximum(MSE_RTOL * np.abs(mse_theory), se_term)
    moments = None
    if not eiv and model.sigma2 > 0 and completed >= 2:
        moments = _moment_report(acc.norm, p)
    return ExperimentResult(
        family=spec.family,
        trials=spec.trials,
        seed=spec.seed,
        completed=completed,
        failures=dict(sorted(acc.failures.items())),
        ranks=np.arange(1, p + 1),
        mse_emp=mse_emp,
        mse_se=mse_se,
        mse_theory=np.asarray(mse_theory, dtype=float),
        sel_freq=sel_freq,
        auto_mse=float(acc.auto.mean) if completed else float("nan"),
        auto_se=float(acc.auto.se()) if completed else float("nan"),
        risk_estimate_mean=(np.asarray(acc.risk.mean) if not eiv and completed else None),
        risk_estimate_se=(np.asarray(acc.risk.se()) if not eiv and completed else None),
        tls_full_formula_mean=(float(acc.formula_full.mean) if eiv and completed else None),
        moments=moments,
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
    E = np.asarray(errors, dtype=float)
    if E.ndim != 2:
        raise ValueError(f"expected a sequence of vectors, got shape {E.shape}")
    n = E.shape[0]
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} samples, got {n}")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive for a normalized error")
    if not math.isfinite(sigma2):
        raise ValueError(f"sigma2 must be finite, got {sigma2}")
    if isinstance(dof, bool) or not isinstance(dof, numbers.Integral) or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    if not np.isfinite(E).all():
        raise ValueError("error entries must be finite")
    s = np.einsum("ij,ij->i", E, E) / sigma2
    return _moment_report(VecStats.from_block(s), dof)


def compare_selection_rules(spec: ExperimentSpec, grid: Sequence[float]) -> SelectionComparison:
    """Evaluate the reduced-TLS rank selection across a grid of parameter
    norms on identical realizations.

    Runs on the engine's stacked errors-in-variables kernel, chunk by
    chunk, and evaluates both rank rules for the whole grid at once.
    Flags theta dependence when any realization selects different ranks at
    two grid points (the witness is the first such trial, in trial order,
    and its first grid value whose selection differs from the first
    one's); the sigma2 = 0 case is provably grid-invariant (the
    objective is then a positive multiple of a norm-free tail sum).
    """
    if spec.family != "rrtls":
        raise ValueError(f"selection-rule comparison requires family 'rrtls', got {spec.family!r}")
    grid_arr = np.asarray(list(grid), dtype=float).reshape(-1)
    if grid_arr.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    if not np.all(np.isfinite(grid_arr)):
        raise ValueError("grid values must be finite")
    if np.any(grid_arr < 0):
        raise ValueError("grid values are squared norms and must be >= 0")
    model = spec.model
    p = model.p
    G = grid_arr.shape[0]
    counts = np.zeros((G, p), dtype=np.int64)
    counts_alt = np.zeros_like(counts)
    failures: Dict[str, int] = {}
    witness = None
    completed = 0
    rows = _chunk_rows(model.N * (p + 1))
    t = grid_arr[:, None, None]
    for start in range(0, spec.trials, rows):
        trials, *_, scores = _eiv_kernel(spec, start, min(start + rows, spec.trials), failures)
        completed += trials.shape[0]
        # (G, b) selected rank indices: every grid value on every trial
        q_index = np.argmin(_q_values(scores, model.sigma2, p, t), axis=-1)
        alt_index = np.argmin(risk_objective(scores, model.sigma2 * (1.0 + t))[..., :p], axis=-1)
        for i in range(G):
            counts[i] += np.bincount(q_index[i], minlength=p)
            counts_alt[i] += np.bincount(alt_index[i], minlength=p)
        if witness is None:
            moved = q_index != q_index[0]
            movers = np.flatnonzero(moved.any(axis=0))
            if movers.size:
                j = movers[0]
                i = int(np.argmax(moved[:, j]))
                witness = {
                    "trial": int(trials[j]),
                    "t1": float(grid_arr[0]),
                    "t2": float(grid_arr[i]),
                    "q1": int(q_index[0, j]) + 1,
                    "q2": int(q_index[i, j]) + 1,
                }
    freq = counts / completed if completed else np.zeros_like(counts, dtype=float)
    freq_alt = counts_alt / completed if completed else np.zeros_like(counts, dtype=float)
    return SelectionComparison(
        grid=grid_arr,
        q_star_freq=freq,
        q_star_freq_alt=freq_alt,
        theta_dependent=witness is not None,
        witness=witness,
        completed=completed,
        failures=dict(sorted(failures.items())),
    )


def search_norm_dependence_witness(
    p: int = 4,
    sigma2: float = 0.25,
    t_grid: Sequence[float] = (0.0, 1.0, 3.0, 10.0),
    seed: int = 0,
) -> NormDependenceWitness:
    """Search synthetic descending score vectors for one whose selected
    rank differs between two grid values of the parameter norm.

    Deterministic given ``seed``; raises ``RuntimeError`` if no witness
    appears within ``MAX_WITNESS_TRIES`` draws (with the default ranges a witness
    is found almost immediately).
    """
    from .tls import norm_dependence_certificate

    rng = _aux_rng(seed, 4)
    for attempt in range(1, MAX_WITNESS_TRIES + 1):
        scores = sigma2 * np.sort(rng.uniform(0.0, 12.0, size=p + 1))[::-1]
        cert = norm_dependence_certificate(t_grid, scores, sigma2, p)
        if not cert.is_constant:
            t1, t2, q1, q2 = cert.witness
            return NormDependenceWitness(
                p=p, sigma2=sigma2, scores=scores,
                t1=t1, t2=t2, q1=q1, q2=q2, tries=attempt,
            )
    raise RuntimeError(f"no norm-dependent instance found in {MAX_WITNESS_TRIES} tries")
