"""Total-least-squares estimation and the hypothesized reduced-rank variant.

The TLS solution minimizes ``|H_tilde @ theta - y|^2 / (theta @ theta + 1)``
and is computed from the SVD of the augmented matrix ``A = [H_tilde, y]``:
the direction of the smallest singular value is discarded, the retained
columns ``U_s`` define the corrected system matrix and the signal estimate,
and the parameter estimate solves the (consistent) corrected system.

The rank-q machinery mirrors the least-squares case but its selection
objective depends on the squared norm of the unknown parameter; the
objective is evaluated either with the oracle value (harness use) or with a
norm bound supplied by the caller.  A certificate helper maps a grid of
parameter norms to their selected ranks, exposing instances where the
chosen rank changes with the norm, i.e. where no norm-independent rank
rule exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSolutionError, NonUniqueTlsError
from .ls import ls_reduced, tail_sums
from .model import MeasurementModel, _frozen_array
from .svdtools import OrderedBasis, SvdFactorization, svd

DEFAULT_GAP_RTOL = 1e-10
DEFAULT_DEGENERACY_RTOL = 1e-12

Q_MODES = ("oracle", "bound")


@dataclass(frozen=True)
class TlsEstimate:
    """TLS estimate with the corrected system matrix and the SVD it came
    from.  ``singular_gap`` is the difference between the two smallest
    singular values of the augmented matrix; positivity (relative to the
    largest) guarantees uniqueness."""

    theta_hat: np.ndarray
    x_hat: np.ndarray
    n_hat: np.ndarray
    H_corrected: np.ndarray
    augmented_svd: SvdFactorization
    singular_gap: float

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", _frozen_array(self.theta_hat))
        object.__setattr__(self, "x_hat", _frozen_array(self.x_hat))
        object.__setattr__(self, "n_hat", _frozen_array(self.n_hat))
        object.__setattr__(self, "H_corrected", _frozen_array(self.H_corrected))

    @property
    def retained_columns(self) -> np.ndarray:
        """The p retained left singular vectors of the augmented matrix."""
        return self.augmented_svd.U[:, :-1]

    @property
    def discarded_column(self) -> np.ndarray:
        """The left singular vector of the smallest singular value."""
        return self.augmented_svd.U[:, -1]


@dataclass(frozen=True)
class QObjective:
    """Per-rank objective values for the reduced TLS hypothesis.

    ``values[i]`` holds rank q = i + 1; ``scores`` is the length-(p+1)
    vector of squared products used by the objective (the p ordered scores
    over the retained columns followed by the always-discarded score of
    the smallest-singular-value direction); ``mode`` records whether the
    parameter norm was the oracle value or an upper bound.
    """

    values: np.ndarray
    q_star: int
    mode: str
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        object.__setattr__(self, "scores", _frozen_array(self.scores))


@dataclass(frozen=True)
class NormDependenceCertificate:
    """Map from parameter-norm values to selected ranks, with a constancy
    flag and, when the map is not constant, the first witnessing pair."""

    theta_norm2_grid: np.ndarray
    q_stars: np.ndarray
    is_constant: bool
    witness: Optional[Tuple[float, float, int, int]]

    def __post_init__(self):
        object.__setattr__(self, "theta_norm2_grid", _frozen_array(self.theta_norm2_grid))
        object.__setattr__(self, "q_stars", _frozen_array(self.q_stars, dtype=int))


def _rejection_codes(S, core_svals, gap_rtol: float, degeneracy_rtol: float) -> np.ndarray:
    """Error code of each TLS problem, ``""`` when it has a unique,
    nondegenerate solution, elementwise over stacked problems.

    ``S`` (..., p + 1) are the singular values of the augmented matrix
    ``[H_tilde, y]`` and ``core_svals`` (..., p) those of the core
    ``U_s' H_tilde``.  The solution is unique when ``sigma_p > sigma_{p+1}``
    (judged relative to the largest singular value) and yields a parameter
    estimate when the core is nonsingular (Golub & Van Loan, SIAM J. Numer.
    Anal. 17, 1980); a problem failing both is nonunique.
    """
    p = S.shape[-1] - 1
    nonunique = S[..., p - 1] - S[..., p] <= gap_rtol * S[..., 0]
    degenerate = core_svals[..., -1] <= degeneracy_rtol * np.maximum(core_svals[..., 0], 1.0)
    return np.where(nonunique, NonUniqueTlsError.code,
                    np.where(degenerate, DegenerateSolutionError.code, ""))


def tls_solve(
    H_tilde,
    y,
    gap_rtol: float = DEFAULT_GAP_RTOL,
    degeneracy_rtol: float = DEFAULT_DEGENERACY_RTOL,
) -> TlsEstimate:
    """Solve the TLS problem from the SVD of the augmented matrix.

    With ``[U_s, u_s]`` the left singular vectors of ``[H_tilde, y]``
    (``u_s`` for the smallest singular value), the estimates are
    ``x_hat = U_s U_s' y``, ``n_hat = y - x_hat``,
    ``H_corrected = U_s U_s' H_tilde`` and ``theta_hat`` the solution of
    the consistent system ``H_corrected @ theta = x_hat`` (solved as the
    square p-by-p system ``(U_s' H_tilde) theta = U_s' y``, algebraically
    equal to the normal-equations form built on U_s).

    Raises
    ------
    NonUniqueTlsError
        If the two smallest singular values are too close
        (gap <= gap_rtol * largest), so the discarded direction is
        ill-defined.
    DegenerateSolutionError
        If the corrected system matrix is numerically rank deficient
        (the classical pathology of a vanishing last component in the
        smallest right singular vector).
    """
    H_tilde = np.asarray(H_tilde, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if H_tilde.ndim != 2 or H_tilde.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch: H_tilde {H_tilde.shape}, y length {y.shape[0]}"
        )
    N, p = H_tilde.shape
    if N < p + 1:
        raise ValueError(f"need N >= p + 1 rows, got N={N}, p={p}")
    f = svd(np.hstack([H_tilde, y[:, None]]))
    gap = float(f.S[p - 1] - f.S[p])
    Us = f.U[:, :p]
    core = Us.T @ H_tilde
    core_svals = np.linalg.svd(core, compute_uv=False)
    code = _rejection_codes(f.S, core_svals, gap_rtol, degeneracy_rtol)
    if code == NonUniqueTlsError.code:
        raise NonUniqueTlsError(
            f"no strictly smallest singular value: gap {gap:.6e} <= "
            f"{gap_rtol:g} * {f.S[0]:.6e}"
        )
    if code == DegenerateSolutionError.code:
        raise DegenerateSolutionError(
            f"corrected system matrix is rank deficient: smallest singular "
            f"value {core_svals[-1]:.6e}"
        )
    coeffs = Us.T @ y
    theta_hat = np.linalg.solve(core, coeffs)
    x_hat = Us @ coeffs
    return TlsEstimate(
        theta_hat=theta_hat,
        x_hat=x_hat,
        n_hat=y - x_hat,
        H_corrected=Us @ core,
        augmented_svd=f,
        singular_gap=gap,
    )


def tls_factor_stack(A):
    """Factor and check a stack of TLS problems at once.

    ``A`` (b, N, p + 1) stacks the augmented matrices ``[H_tilde, y]``.
    Returns ``(U, core, codes)``: the thin left singular vectors of each
    matrix (b, N, p + 1), retained columns first and the discarded one
    last, with no sign convention (every consumer is sign invariant); the
    cores ``U_s' H_tilde`` (b, p, p); and per row the code of the error
    :func:`tls_solve` raises on that problem at its default tolerances,
    ``""`` for a solved row.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] < A.shape[2]:
        raise ValueError(f"expected a (b, N, p + 1) stack with N >= p + 1, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    p = A.shape[2] - 1
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    core = np.swapaxes(U[..., :p], 1, 2) @ A[..., :p]
    codes = _rejection_codes(S, np.linalg.svd(core, compute_uv=False),
                             DEFAULT_GAP_RTOL, DEFAULT_DEGENERACY_RTOL)
    return U, core, codes


def tls_objective(theta, H_tilde, y) -> float:
    """Normalized residual ``|H_tilde @ theta - y|^2 / (theta @ theta + 1)``,
    the quantity the TLS solution minimizes."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    H_tilde = np.asarray(H_tilde, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    r = H_tilde @ theta - y
    return float(r @ r) / (float(theta @ theta) + 1.0)


# The rank-q TLS signal estimate projects y onto the first q ordered
# retained columns: the same projection as the rank-r LS estimate.
tls_reduced = ls_reduced


def mse_theoretical_tls_full(model: MeasurementModel, estimate: TlsEstimate) -> float:
    """Conditional mean squared error descriptor of the full TLS signal
    estimate: squared corrected-matrix mismatch plus the compound noise
    term ``sigma2 * (1 + theta'theta) * p``.

    Treats the realized corrected matrix as fixed; agreement with the
    Monte Carlo mean squared error is therefore only approximate (the
    harness reports both).
    """
    return float(_tls_full_mse(model, estimate.H_corrected @ model.theta))


def _tls_full_mse(model: MeasurementModel, corrected_signal) -> np.ndarray:
    # mse_theoretical_tls_full along the last axis of H_corrected @ theta.
    d = corrected_signal - model.x
    return np.sum(d * d, axis=-1) + model.sigma2 * (1.0 + model.theta_norm2) * model.p


def augmented_scores(basis: OrderedBasis, u_s, y) -> np.ndarray:
    """Length-(p+1) score vector for the q objective: the p ordered scores
    over the retained columns, then the score of the discarded direction
    appended last (it sits in every tail sum, shifting all objective values
    equally without affecting the argmin)."""
    u_s = np.asarray(u_s, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return np.append(basis.scores, float(u_s @ y) ** 2)


def q_objective(scores, sigma2: float, p: int, theta_norm2: float, mode: str) -> QObjective:
    """Rank objective for the reduced TLS hypothesis.

    values[q] = (sum_{j>q} scores[j] + sigma2*(1+t)*(2q + p)) / (1 + t)
    for q in 1..p, with t the squared parameter norm (oracle value) or its
    upper bound, per ``mode``.  The argmin resolves ties toward the
    smallest rank.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != p + 1:
        raise ValueError(f"expected p + 1 = {p + 1} scores, got {scores.shape[0]}")
    if np.any(scores < 0):
        raise ValueError("scores are squared products and must be nonnegative")
    if np.any(np.diff(scores[:p]) > 0):
        raise ValueError("the first p scores must be nonincreasing")
    if mode not in Q_MODES:
        raise ValueError(f"mode must be one of {Q_MODES}, got {mode!r}")
    if not np.isfinite(theta_norm2) or theta_norm2 < 0:
        raise ValueError(f"theta_norm2 must be >= 0, got {theta_norm2}")
    values = _q_values(scores, sigma2, p, float(theta_norm2))
    q_star = int(np.argmin(values)) + 1
    return QObjective(values=values, q_star=q_star, mode=mode, scores=scores)


def q_objective_bias_recipe(scores, sigma2: float, p: int, theta_norm2: float) -> np.ndarray:
    """Alternative per-rank objective obtained by rerunning the
    least-squares bias-correction recipe on the p + 1 augmented columns
    with the compound noise variance:

    values[q] = sum_{j>q} scores[j] + sigma2*(1+t)*(2q - (p+1)).

    The primary rule (:func:`q_objective`) uses a different correction
    term; the harness reports both selections side by side so the
    difference is visible rather than silently reconciled.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != p + 1:
        raise ValueError(f"expected p + 1 = {p + 1} scores, got {scores.shape[0]}")
    return _bias_recipe_values(scores, sigma2, p, float(theta_norm2))


# The two rank objectives along the last axis of augmented scores
# (..., p + 1); the parameter norm t broadcasts against the leading axes,
# so a (G, 1, 1) grid of norms over (b, p + 1) scores gives (G, b, p).

def _q_values(scores, sigma2: float, p: int, t):
    q = np.arange(1, p + 1)
    return (tail_sums(scores)[..., :p] + sigma2 * (1.0 + t) * (2 * q + p)) / (1.0 + t)


def _bias_recipe_values(scores, sigma2: float, p: int, t):
    q = np.arange(1, p + 1)
    return tail_sums(scores)[..., :p] + sigma2 * (1.0 + t) * (2 * q - (p + 1))


def norm_dependence_certificate(theta_norm2_grid: Sequence[float], scores, sigma2: float, p: int) -> NormDependenceCertificate:
    """Evaluate the selected rank across a grid of parameter norms.

    Returns the map t -> q_star(t), whether it is constant over the grid,
    and the first pair of grid values with different selections (the
    machine-checkable witness that the selection depends on the unknown
    parameter norm).
    """
    grid = np.asarray(list(theta_norm2_grid), dtype=float).reshape(-1)
    if grid.shape[0] == 0:
        raise ValueError("theta_norm2_grid must be non-empty")
    q_stars = np.array(
        [q_objective(scores, sigma2, p, t, "oracle").q_star for t in grid], dtype=int
    )
    witness = None
    for i in range(1, q_stars.shape[0]):
        if q_stars[i] != q_stars[0]:
            witness = (float(grid[0]), float(grid[i]), int(q_stars[0]), int(q_stars[i]))
            break
    return NormDependenceCertificate(
        theta_norm2_grid=grid,
        q_stars=q_stars,
        is_constant=witness is None,
        witness=witness,
    )
