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

from dataclasses import dataclass

import numpy as np

from .errors import SingularModelError
from .model import DEFAULT_RANK_RTOL, MeasurementModel, _frozen_array
from .svdtools import OrderedBasis, svd


@dataclass(frozen=True)
class LsEstimate:
    """Least-squares estimate of (theta, x, n) with the rank that built it."""

    theta_hat: np.ndarray
    x_hat: np.ndarray
    n_hat: np.ndarray
    rank_used: int

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", _frozen_array(self.theta_hat))
        object.__setattr__(self, "x_hat", _frozen_array(self.x_hat))
        object.__setattr__(self, "n_hat", _frozen_array(self.n_hat))


@dataclass(frozen=True)
class BiasEstimate:
    """Sample bias vector over the discarded directions and its corrected
    squared norm ``b_hat @ b_hat - sigma2 * (p - r)``."""

    b_hat: np.ndarray
    b_hat_norm2_corrected: float
    r: int

    def __post_init__(self):
        object.__setattr__(self, "b_hat", _frozen_array(self.b_hat))


@dataclass(frozen=True)
class RankSelection:
    """Per-rank objective values (index i holds rank r = i + 1) and the
    argmin rank; ties resolve toward the smallest rank."""

    objective: np.ndarray
    r_star: int
    scores_used: OrderedBasis
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "objective", _frozen_array(self.objective))

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, self.objective.shape[0] + 1)


def ls_full(H, y, rank_rtol: float = DEFAULT_RANK_RTOL) -> LsEstimate:
    """Full-rank least squares solved through the SVD of H.

    Computes ``theta_hat = V @ diag(1/S) @ U.T @ y`` (equal to the
    normal-equations solution when H has full column rank), then
    ``x_hat = H @ theta_hat`` and ``n_hat = y - x_hat``.

    Raises
    ------
    SingularModelError
        If the smallest singular value of H is at or below
        ``rank_rtol`` times the largest.
    """
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    f = svd(H)
    if f.S[-1] <= rank_rtol * f.S[0]:
        raise SingularModelError(
            f"design matrix is numerically singular: smallest singular value "
            f"{f.S[-1]:.6e} <= {rank_rtol:g} * {f.S[0]:.6e}"
        )
    theta_hat = f.V @ ((f.U.T @ y) / f.S)
    x_hat = H @ theta_hat
    return LsEstimate(
        theta_hat=theta_hat, x_hat=x_hat, n_hat=y - x_hat, rank_used=H.shape[1]
    )


def ls_reduced(basis: OrderedBasis, y, r: int) -> np.ndarray:
    """Rank-r estimate of the signal: projection of y onto the span of the
    first r ordered columns."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if not 1 <= r <= basis.k:
        raise ValueError(f"rank r={r} out of range 1..{basis.k}")
    Ur = basis.columns[:, :r]
    return Ur @ (Ur.T @ y)


def tail_sums(scores: np.ndarray) -> np.ndarray:
    """tail_sums(s)[..., i] = sum of s[..., i+1:] along the last axis, so a
    (b, p) block gives one row of tail sums per row of scores."""
    scores = np.asarray(scores, dtype=float)
    suffix = np.cumsum(scores[..., ::-1], axis=-1)[..., ::-1]
    out = np.zeros_like(suffix)
    out[..., :-1] = suffix[..., 1:]
    return out


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
    if not 1 <= r <= basis_of_x.k:
        raise ValueError(f"rank r={r} out of range 1..{basis_of_x.k}")
    return float(np.sum(basis_of_x.scores[r:]) + r * model.sigma2)


def bias_estimate(basis: OrderedBasis, y, r: int, sigma2: float) -> BiasEstimate:
    """Estimate the bias of the rank-r estimator from the discarded
    directions.

    ``b_hat`` is the projection of y onto the discarded ordered columns;
    its squared norm overshoots the true squared bias by
    ``sigma2 * (p - r)`` in expectation, so that amount is subtracted to
    form the corrected value.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if not 1 <= r <= basis.k:
        raise ValueError(f"rank r={r} out of range 1..{basis.k}")
    tail = basis.columns[:, r:]
    b_hat = tail @ (tail.T @ y)
    corrected = float(b_hat @ b_hat - sigma2 * (basis.k - r))
    return BiasEstimate(b_hat=b_hat, b_hat_norm2_corrected=corrected, r=r)


def select_rank_ls(basis: OrderedBasis, sigma2: float, p: int) -> RankSelection:
    """Pick the rank minimizing the data-driven risk estimate.

    objective[r] = sum_{j>r} scores[j] + sigma2 * (2r - p) for r in 1..p;
    the argmin resolves ties toward the smallest rank.
    """
    if basis.k != p:
        raise ValueError(f"basis has {basis.k} columns, expected p={p}")
    objective = risk_objective(basis.scores, sigma2)
    r_star = int(np.argmin(objective)) + 1
    return RankSelection(
        objective=objective, r_star=r_star, scores_used=basis, sigma2=float(sigma2)
    )
