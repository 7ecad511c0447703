"""Full-rank and reduced-rank least-squares estimation.

The full-rank solve goes through the SVD of the design matrix (never the
normal equations), the reduced-rank estimator keeps the r dominant ordered
left singular vectors, and the rank rule picks the r minimizing the
data-driven risk estimate

    objective(r) = sum_{j>r} scores[j] + sigma2 * (2r - p),

where ``scores`` are the descending squared products of the ordered left
singular vectors with the observation.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularModelError, check_real, finite_array, finite_vector
from .model import RANK_RTOL, MeasurementModel, _value_type
from .svdtools import OrderedBasis, check_rank, svd


@_value_type("theta_hat", "x_hat", "n_hat")
class LsEstimate:
    """Least-squares estimate of (theta, x, n) with the rank that built it."""

    theta_hat: np.ndarray
    x_hat: np.ndarray
    n_hat: np.ndarray
    rank_used: int


@_value_type("b_hat")
class BiasEstimate:
    """Sample bias vector over the discarded directions and its corrected
    squared norm ``b_hat @ b_hat - sigma2 * (p - r)``."""

    b_hat: np.ndarray
    b_hat_norm2_corrected: float
    r: int


@_value_type("objective")
class RankSelection:
    """Per-rank objective values (index i holds rank r = i + 1) and their
    exact smallest minimizer ``r_star = max(1, #{scores > 2 sigma2})``."""

    objective: np.ndarray
    r_star: int
    scores_used: OrderedBasis
    sigma2: float

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, self.objective.shape[0] + 1)


def ls_full(H, y) -> LsEstimate:
    """Full-rank least squares solved through the SVD of H.

    Computes ``theta_hat = V @ diag(1/S) @ U.T @ y`` (equal to the
    normal-equations solution when H has full column rank), then
    ``x_hat = H @ theta_hat`` and ``n_hat = y - x_hat``.

    Raises
    ------
    ValueError
        If H is not a finite tall-or-square matrix, or y does not hold one
        finite entry per row of H.
    SingularModelError
        If the smallest singular value of H is at or below
        ``model.RANK_RTOL`` (1e-10) times the largest, the threshold
        :class:`MeasurementModel` applies to its design matrix.
    """
    H = np.asarray(H, dtype=float)
    f = svd(H)
    y = finite_vector(y, "y", H.shape[0])
    if f.S[-1] <= RANK_RTOL * f.S[0]:
        raise SingularModelError(
            f"design matrix is numerically singular: smallest singular value "
            f"{f.S[-1]:.6e} <= {RANK_RTOL:g} * {f.S[0]:.6e}"
        )
    theta_hat = f.V @ ((f.U.T @ y) / f.S)
    x_hat = H @ theta_hat
    return LsEstimate(
        theta_hat=theta_hat, x_hat=x_hat, n_hat=y - x_hat, rank_used=H.shape[1]
    )


def _projection_input(basis: OrderedBasis, y, r: int) -> np.ndarray:
    # y and r of a projection onto kept or discarded ordered columns
    y = finite_vector(y, "y", basis.columns.shape[0])
    check_rank(basis, r)
    return y


def _project(columns: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of y onto the span of orthonormal ``columns``."""
    return columns @ (columns.T @ y)


def ls_reduced(basis: OrderedBasis, y, r: int) -> np.ndarray:
    """Rank-r estimate of the signal: projection of y onto the span of the
    first r ordered columns."""
    y = _projection_input(basis, y, r)
    return _project(basis.columns[:, :r], y)


def tail_sums(scores: np.ndarray) -> np.ndarray:
    """tail_sums(s)[..., i] = sum of s[..., i+1:] along the last axis, so a
    (b, p) block gives one row of tail sums per row of scores."""
    scores = np.asarray(scores, dtype=float)
    suffix = np.cumsum(scores[..., ::-1], axis=-1)[..., ::-1]
    out = np.zeros_like(suffix)
    out[..., :-1] = suffix[..., 1:]
    return out


def _check_rule_inputs(scores, sigma2: float, theta_norm2: float = 0.0) -> None:
    """Inputs of the public rank rules: squared-product scores are a
    finite, nonnegative vector, and the noise variance and the squared
    parameter norm follow ``errors.check_real`` (a NaN would silently
    select a rank)."""
    if not np.all(finite_array(scores, "scores", 1) >= 0):
        raise ValueError("scores are squared products and must be nonnegative")
    check_real(sigma2, "sigma2")
    check_real(theta_norm2, "theta_norm2")


def _rank_threshold(sigma2, t):
    """The score a direction must clear to be kept, ``2 sigma2 (1 + t)``,
    with t the squared parameter norm the rule assumes, elementwise: 0 for
    the LS rule, and for the TLS rule the oracle value, a bound or a grid."""
    return 2.0 * sigma2 * (1.0 + t)


def _count_rank(scores, threshold) -> np.ndarray:
    """``max(1, #{scores > threshold})`` along the last axis (the threshold
    broadcast over the leading axes): the exact argmin of every rank rule.
    A float matmul with ones counts exactly, and faster than
    ``np.count_nonzero`` along a short axis, into that count's ``np.intp``."""
    above = np.asarray(scores) > np.asarray(threshold)[..., None]
    return np.maximum(above @ np.ones(above.shape[-1]), 1).astype(np.intp)


def risk_objective(scores, sigma2: float) -> np.ndarray:
    """Data-driven risk estimate per rank along the last axis of descending
    ordered scores: ``objective[..., r - 1] = sum_{j>r} scores[..., j] +
    sigma2 * (2r - p)``."""
    scores = np.asarray(scores, dtype=float)
    p = scores.shape[-1]
    return tail_sums(scores) + sigma2 * (2 * np.arange(1, p + 1) - p)


def mse_theoretical_ls(model: MeasurementModel, basis_of_x: OrderedBasis, r: int) -> float:
    """Exact mean squared error of the rank-r signal estimator:
    discarded signal energy plus r * sigma2.

    ``basis_of_x`` must be ordered against the true signal x (an oracle
    quantity; the Monte Carlo harness uses this for theory columns).
    """
    check_rank(basis_of_x, r)
    return float(np.sum(basis_of_x.scores[r:]) + r * model.sigma2)


def bias_estimate(basis: OrderedBasis, y, r: int, sigma2: float) -> BiasEstimate:
    """Estimate the bias of the rank-r estimator from the discarded
    directions.

    ``b_hat`` is the projection of y onto the discarded ordered columns;
    its squared norm overshoots the true squared bias by
    ``sigma2 * (p - r)`` in expectation, so that amount is subtracted to
    form the corrected value.
    """
    y = _projection_input(basis, y, r)
    _check_rule_inputs(basis.scores, sigma2)
    b_hat = _project(basis.columns[:, r:], y)
    corrected = float(b_hat @ b_hat - sigma2 * (basis.k - r))
    return BiasEstimate(b_hat=b_hat, b_hat_norm2_corrected=corrected, r=r)


def select_rank_ls(basis: OrderedBasis, sigma2: float, p: int) -> RankSelection:
    """Pick the rank minimizing the data-driven risk estimate.

    objective[r] = sum_{j>r} scores[j] + sigma2 * (2r - p) for r in 1..p;
    the rank is the count ``max(1, #{scores > 2 sigma2})``, its exact argmin
    with ties going to the smallest rank.
    """
    if basis.k != p:
        raise ValueError(f"basis has {basis.k} columns, expected p={p}")
    _check_rule_inputs(basis.scores, sigma2)
    objective = risk_objective(basis.scores, sigma2)
    r_star = int(_count_rank(basis.scores, _rank_threshold(sigma2, 0.0)))
    return RankSelection(
        objective=objective, r_star=r_star, scores_used=basis, sigma2=float(sigma2)
    )
